package traffic

import (
	"bytes"
	"testing"
)

// FuzzParse feeds arbitrary bytes to the trace parser. It must never
// panic, and any trace it accepts must survive encode→parse→encode with
// identical bytes.
func FuzzParse(f *testing.F) {
	f.Add([]byte(`{"nilicon_trace":1,"name":"t","seed":3,"clients":2,"keys":8,"slow_clients":[1]}
{"id":1,"at":0,"client":0,"op":"set","key":3,"size":64}
{"id":2,"at":5,"client":1,"op":"get","key":3,"size":0,"fanout":2}
`))
	f.Add([]byte(`{"nilicon_trace":1,"clients":1}` + "\n\n" + `{"id":9,"at":1,"client":0,"op":"get"}`))
	f.Add([]byte(`{"nilicon_trace":2,"clients":1}`))
	f.Add([]byte(`{"nilicon_trace":1,"clients":1}` + "\n" + `{"id":1,"at":5,"client":0,"op":"set"}` + "\n" + `{"id":1,"at":4`))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := tr.Encode(&first); err != nil {
			t.Fatalf("encode accepted trace: %v", err)
		}
		again, err := Parse(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-parse of encoded trace: %v\n%s", err, first.Bytes())
		}
		if err := again.Encode(&second); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("encode→parse→encode changed the trace:\n%s\n---\n%s", first.Bytes(), second.Bytes())
		}
	})
}
