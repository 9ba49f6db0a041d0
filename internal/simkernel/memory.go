package simkernel

import (
	"fmt"
	"slices"
	"sort"

	"nilicon/internal/simtime"
)

// PageSize is the simulated page size in bytes.
const PageSize = 4096

// Prot is a VMA protection bitmask.
type Prot uint8

// Protection bits.
const (
	ProtRead Prot = 1 << iota
	ProtWrite
	ProtExec
)

func (p Prot) String() string {
	s := []byte("---")
	if p&ProtRead != 0 {
		s[0] = 'r'
	}
	if p&ProtWrite != 0 {
		s[1] = 'w'
	}
	if p&ProtExec != 0 {
		s[2] = 'x'
	}
	return string(s)
}

// VMA is one virtual memory area.
type VMA struct {
	Start uint64 // inclusive, page-aligned
	End   uint64 // exclusive, page-aligned
	Prot  Prot
	// Path is the backing file path; empty for anonymous mappings.
	// Memory-mapped files are what make stat()-per-file expensive in
	// stock CRIU (§V cause (1)).
	Path    string
	FileOff uint64
}

// Pages returns the number of pages the VMA spans.
func (v *VMA) Pages() int { return int((v.End - v.Start) / PageSize) }

// Anonymous reports whether the VMA has no backing file.
func (v *VMA) Anonymous() bool { return v.Path == "" }

func (v *VMA) String() string {
	return fmt.Sprintf("%x-%x %s %s", v.Start, v.End, v.Prot, v.Path)
}

// Page is one resident page frame. Data always has length PageSize.
type Page struct {
	Data []byte
	// SoftDirty is the kernel's soft-dirty PTE bit (set on write, cleared
	// via /proc/pid/clear_refs).
	SoftDirty bool
	// WriteProtected supports hypervisor-style dirty tracking (MC): a
	// write to a protected page costs a VM exit and clears the bit.
	WriteProtected bool
}

// AddressSpace is a process's virtual memory: a sorted set of VMAs plus
// the resident pages, with both soft-dirty (NiLiCon) and write-protect
// (MC) dirty tracking.
type AddressSpace struct {
	k    *Kernel
	vmas []*VMA // sorted by Start, non-overlapping
	// pages maps page number (address / PageSize) to the resident frame.
	pages map[uint64]*Page

	nextMap uint64 // bump allocator for Mmap

	softTracking bool
	wpTracking   bool

	// softDirtyLog records the page number of every soft-dirty bit that
	// went from clear to set since the last clear, so the pagemap read
	// and clear_refs cost O(dirty pages) of host time rather than a walk
	// of every resident page. Entries may repeat, and may name pages
	// since unmapped; readers filter against the page map. Every page
	// whose bit is set is listed.
	softDirtyLog []uint64

	// trackOverhead accumulates runtime dirty-tracking costs (soft-dirty
	// faults or VM exits) since the last harvest. The container scheduler
	// folds it into thread execution time; this is the paper's "runtime
	// overhead" component in Figure 3.
	trackOverhead simtime.Duration
}

// NewAddressSpace returns an empty address space.
func NewAddressSpace(k *Kernel) *AddressSpace {
	return &AddressSpace{
		k:       k,
		pages:   make(map[uint64]*Page),
		nextMap: 0x10000, // leave the zero pages unmapped
	}
}

// Mmap allocates a VMA of the given size (rounded up to pages) at a fresh
// address. path names the backing file ("" for anonymous). Mapping a file
// fires the ftrace hook for mmap, which the state-change tracker uses to
// invalidate the mapped-files cache (§V-B).
func (as *AddressSpace) Mmap(size uint64, prot Prot, path string, pid int, containerID string) *VMA {
	if size == 0 {
		panic("simkernel: Mmap of zero size")
	}
	pages := (size + PageSize - 1) / PageSize
	v := &VMA{Start: as.nextMap, End: as.nextMap + pages*PageSize, Prot: prot, Path: path}
	as.nextMap = v.End + PageSize // guard page gap
	as.vmas = append(as.vmas, v)
	sort.Slice(as.vmas, func(i, j int) bool { return as.vmas[i].Start < as.vmas[j].Start })
	if path != "" {
		as.k.Trace.Fire(ftraceEvent("mmap_region", pid, containerID, path))
	}
	return v
}

// Munmap removes a VMA and drops its resident pages.
func (as *AddressSpace) Munmap(v *VMA) {
	for i, x := range as.vmas {
		if x == v {
			// The dropped pages' soft-dirty log entries go stale; readers
			// skip them.
			as.vmas = append(as.vmas[:i], as.vmas[i+1:]...)
			for pn := v.Start / PageSize; pn < v.End/PageSize; pn++ {
				delete(as.pages, pn)
			}
			return
		}
	}
}

// VMAs returns the VMA list (shared slice; callers must not mutate).
func (as *AddressSpace) VMAs() []*VMA { return as.vmas }

// FindVMA returns the VMA containing addr, or nil.
func (as *AddressSpace) FindVMA(addr uint64) *VMA {
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].End > addr })
	if i < len(as.vmas) && as.vmas[i].Start <= addr {
		return as.vmas[i]
	}
	return nil
}

// MappedFiles returns the distinct backing-file paths, in first-seen order.
func (as *AddressSpace) MappedFiles() []string {
	seen := make(map[string]bool)
	var out []string
	for _, v := range as.vmas {
		if v.Path != "" && !seen[v.Path] {
			seen[v.Path] = true
			out = append(out, v.Path)
		}
	}
	return out
}

// checkRange verifies [addr, addr+n) is covered by mapped VMAs.
func (as *AddressSpace) checkRange(addr uint64, n int) error {
	end := addr + uint64(n)
	for a := addr; a < end; {
		v := as.FindVMA(a)
		if v == nil {
			return fmt.Errorf("simkernel: segfault at %#x (unmapped)", a)
		}
		if v.End >= end {
			return nil
		}
		a = v.End
	}
	return nil
}

// page returns the resident frame for pn, faulting it in if needed.
func (as *AddressSpace) page(pn uint64, forWrite bool) *Page {
	pg := as.pages[pn]
	if pg == nil {
		pg = &Page{Data: make([]byte, PageSize)}
		as.pages[pn] = pg
		as.trackOverhead += as.k.Costs.MinorFault
		// A freshly faulted page starts dirty under both trackers.
		as.setSoftDirty(pn, pg)
		return pg
	}
	if forWrite {
		if as.softTracking && !pg.SoftDirty {
			as.trackOverhead += as.k.Costs.SoftDirtyFault
		}
		as.setSoftDirty(pn, pg)
		if as.wpTracking && pg.WriteProtected {
			pg.WriteProtected = false
			as.trackOverhead += as.k.Costs.VMExit
		}
	}
	return pg
}

// Write copies data into the address space at addr, performing dirty
// tracking. It returns an error on access to unmapped memory or to a
// non-writable VMA.
func (as *AddressSpace) Write(addr uint64, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	if err := as.checkRange(addr, len(data)); err != nil {
		return err
	}
	if v := as.FindVMA(addr); v.Prot&ProtWrite == 0 {
		return fmt.Errorf("simkernel: write to read-only mapping at %#x", addr)
	}
	for off := 0; off < len(data); {
		pn := (addr + uint64(off)) / PageSize
		po := (addr + uint64(off)) % PageSize
		n := PageSize - int(po)
		if n > len(data)-off {
			n = len(data) - off
		}
		pg := as.page(pn, true)
		copy(pg.Data[po:], data[off:off+n])
		off += n
	}
	return nil
}

// Read copies n bytes starting at addr.
func (as *AddressSpace) Read(addr uint64, n int) ([]byte, error) {
	if err := as.checkRange(addr, n); err != nil {
		return nil, err
	}
	return as.AppendRead(make([]byte, 0, n), addr, n)
}

// AppendRead appends the n bytes starting at addr to dst and returns
// the extended slice (dst unchanged on error).
func (as *AddressSpace) AppendRead(dst []byte, addr uint64, n int) ([]byte, error) {
	if err := as.checkRange(addr, n); err != nil {
		return dst, err
	}
	for off := 0; off < n; {
		pn := (addr + uint64(off)) / PageSize
		po := (addr + uint64(off)) % PageSize
		c := PageSize - int(po)
		if c > n-off {
			c = n - off
		}
		pg := as.page(pn, false)
		dst = append(dst, pg.Data[po:int(po)+c]...)
		off += c
	}
	return dst, nil
}

// Touch dirties count pages starting at the VMA's base without copying
// real payloads; workloads use it to model computation over large arrays
// cheaply while still exercising the fault/tracking machinery. Each page
// gets one byte written so content-based checks still see a change.
func (as *AddressSpace) Touch(v *VMA, firstPage, count int, stamp byte) error {
	if firstPage < 0 || firstPage+count > v.Pages() {
		return fmt.Errorf("simkernel: Touch out of VMA range (%d+%d of %d pages)", firstPage, count, v.Pages())
	}
	base := v.Start/PageSize + uint64(firstPage)
	for i := 0; i < count; i++ {
		pg := as.page(base+uint64(i), true)
		pg.Data[0] = stamp
	}
	return nil
}

// ResidentPages returns the number of resident page frames.
func (as *AddressSpace) ResidentPages() int { return len(as.pages) }

// SetSoftDirtyTracking enables or disables soft-dirty accounting of
// writes (the tracking bit itself lives on each page).
func (as *AddressSpace) SetSoftDirtyTracking(on bool) { as.softTracking = on }

// SoftDirtyTracking reports whether soft-dirty fault accounting is on.
func (as *AddressSpace) SoftDirtyTracking() bool { return as.softTracking }

// WriteProtectAll marks every resident page write-protected and enables
// VM-exit accounting; this models MC re-protecting the guest at the start
// of each epoch.
func (as *AddressSpace) WriteProtectAll() {
	as.wpTracking = true
	for _, pg := range as.pages {
		pg.WriteProtected = true
	}
}

// SetWriteProtectTracking toggles hypervisor-style tracking without
// touching page bits.
func (as *AddressSpace) SetWriteProtectTracking(on bool) { as.wpTracking = on }

// setSoftDirty sets page pn's soft-dirty bit, logging a clear-to-set
// transition.
func (as *AddressSpace) setSoftDirty(pn uint64, pg *Page) {
	if pg.SoftDirty {
		return
	}
	pg.SoftDirty = true
	as.softDirtyLog = append(as.softDirtyLog, pn)
	if len(as.softDirtyLog) > 2*len(as.pages)+64 {
		// Without a clear_refs (an untracked container that keeps
		// remapping) stale entries would pile up; compacting bounds the
		// log by the page map.
		as.compactSoftDirtyLog()
	}
}

// compactSoftDirtyLog rewrites the log in place as the sorted, distinct
// numbers of the resident pages whose soft-dirty bit is set.
func (as *AddressSpace) compactSoftDirtyLog() {
	log := as.softDirtyLog
	w := 0
	for _, pn := range log {
		if pg := as.pages[pn]; pg != nil && pg.SoftDirty {
			log[w] = pn
			w++
		}
	}
	log = log[:w]
	slices.Sort(log)
	as.softDirtyLog = slices.Compact(log)
}

// DirtyPageNumbers returns the sorted page numbers whose soft-dirty bit
// is set. This is the functional core of a pagemap scan; the procfs
// wrapper charges the scan cost (per resident page, as the kernel's
// walk costs), but the host work is proportional to the dirty pages.
func (as *AddressSpace) DirtyPageNumbers() []uint64 {
	as.compactSoftDirtyLog()
	if len(as.softDirtyLog) == 0 {
		return nil
	}
	return slices.Clone(as.softDirtyLog)
}

// ClearSoftDirtyBits clears every page's soft-dirty bit (the functional
// part of writing /proc/pid/clear_refs).
func (as *AddressSpace) ClearSoftDirtyBits() {
	for _, pn := range as.softDirtyLog {
		if pg := as.pages[pn]; pg != nil {
			pg.SoftDirty = false
		}
	}
	as.softDirtyLog = as.softDirtyLog[:0]
}

// PageData returns the frame contents for page number pn (nil if the
// page is not resident). The returned slice aliases the live page.
func (as *AddressSpace) PageData(pn uint64) []byte {
	if pg := as.pages[pn]; pg != nil {
		return pg.Data
	}
	return nil
}

// InstallPage places content at page number pn during restore, without
// dirty-tracking charges. A copy of data is made; short data is
// zero-padded.
func (as *AddressSpace) InstallPage(pn uint64, data []byte) {
	pg := &Page{Data: make([]byte, PageSize)}
	copy(pg.Data, data)
	as.pages[pn] = pg
	as.setSoftDirty(pn, pg)
}

// InstallVMA places a VMA during restore (no hook fire, no allocator
// bump beyond the VMA's own range).
func (as *AddressSpace) InstallVMA(v VMA) *VMA {
	nv := v
	as.vmas = append(as.vmas, &nv)
	sort.Slice(as.vmas, func(i, j int) bool { return as.vmas[i].Start < as.vmas[j].Start })
	if nv.End+PageSize > as.nextMap {
		as.nextMap = nv.End + PageSize
	}
	return &nv
}

// ConsumeTrackingOverhead returns and clears the accumulated runtime
// dirty-tracking cost.
func (as *AddressSpace) ConsumeTrackingOverhead() simtime.Duration {
	d := as.trackOverhead
	as.trackOverhead = 0
	return d
}
