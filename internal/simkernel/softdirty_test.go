package simkernel

import (
	"slices"
	"testing"

	"nilicon/internal/simtime"
)

// bruteDirty is the reference pagemap scan: every resident page whose
// soft-dirty bit is set, sorted.
func bruteDirty(as *AddressSpace) []uint64 {
	var out []uint64
	for pn, pg := range as.pages {
		if pg.SoftDirty {
			out = append(out, pn)
		}
	}
	slices.Sort(out)
	return out
}

// The soft-dirty log must make the pagemap read and clear_refs agree
// with a brute-force scan of the page map under any interleaving of
// writes, reads, Touch, Munmap, remapping, InstallPage and clears —
// including the stale and duplicate entries unmapping and re-faulting
// leave behind — while their virtual charges still scale with the
// resident pages.
func TestSoftDirtyLogMatchesPageMapScan(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		k := newTestKernel()
		p := k.NewProcess("test", "c1")
		as := p.Mem
		rng := simtime.NewRand(seed)
		vmas := []*VMA{as.Mmap(64*PageSize, ProtRead|ProtWrite, "", p.PID, "c1")}
		if seed%2 == 0 {
			as.SetSoftDirtyTracking(true)
		}
		for step := 0; step < 2000; step++ {
			v := vmas[rng.Intn(len(vmas))]
			pg := rng.Intn(v.Pages())
			switch op := rng.Intn(20); {
			case op < 6:
				if err := as.Write(v.Start+uint64(pg)*PageSize+uint64(rng.Intn(PageSize)), []byte{byte(step)}); err != nil {
					t.Fatal(err)
				}
			case op < 8:
				if _, err := as.Read(v.Start+uint64(pg)*PageSize, 8); err != nil {
					t.Fatal(err)
				}
			case op < 11:
				n := 1 + rng.Intn(v.Pages()-pg)
				if err := as.Touch(v, pg, n, byte(step)); err != nil {
					t.Fatal(err)
				}
			case op < 13:
				as.InstallPage(v.Start/PageSize+uint64(pg), []byte{byte(step)})
			case op < 14 && len(vmas) > 1:
				i := rng.Intn(len(vmas))
				as.Munmap(vmas[i])
				vmas = append(vmas[:i], vmas[i+1:]...)
			case op < 15:
				vmas = append(vmas, as.Mmap(uint64(1+rng.Intn(32))*PageSize, ProtRead|ProtWrite, "", p.PID, "c1"))
			case op < 18:
				got := k.ReadPagemap(p)
				if want := bruteDirty(as); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: pagemap %v, page-map scan %v", seed, step, got, want)
				}
			default:
				as.ClearSoftDirtyBits()
				if d := bruteDirty(as); len(d) != 0 {
					t.Fatalf("seed %d step %d: %d pages still soft-dirty after clear", seed, step, len(d))
				}
			}
			if len(as.softDirtyLog) > 2*len(as.pages)+64 {
				t.Fatalf("seed %d step %d: log holds %d entries for %d resident pages", seed, step, len(as.softDirtyLog), len(as.pages))
			}
		}
		if got, want := as.DirtyPageNumbers(), bruteDirty(as); !slices.Equal(got, want) {
			t.Fatalf("seed %d: final dirty set %v, scan %v", seed, got, want)
		}
	}
}

// The pagemap read and clear_refs still charge per resident page, not
// per dirty page: the virtual-time model is the kernel's full walk.
func TestSoftDirtyChargesScaleWithResidentPages(t *testing.T) {
	k := newTestKernel()
	p := k.NewProcess("test", "c1")
	v := p.Mem.Mmap(100*PageSize, ProtRead|ProtWrite, "", p.PID, "c1")
	if err := p.Mem.Touch(v, 0, 100, 1); err != nil {
		t.Fatal(err)
	}
	k.ClearRefs(p)
	if err := p.Mem.Touch(v, 0, 3, 2); err != nil {
		t.Fatal(err)
	}
	m := k.StartMeter()
	pns := k.ReadPagemap(p)
	k.ClearRefs(p)
	got := m.Stop()
	if len(pns) != 3 {
		t.Fatalf("pagemap returned %d dirty pages, want 3", len(pns))
	}
	want := scaleDur(k.Costs.PagemapPerPage, 100) + scaleDur(k.Costs.ClearRefsPerPage, 100) + 2*k.Costs.SyscallBase
	if got != want {
		t.Fatalf("pagemap + clear_refs charged %v, want %v (per resident page)", got, want)
	}
}
