package sim

import "testing"

// TestAdviseHugeKeepsBytes: advising a filled slab of two huge pages
// leaves every byte as it was — the advice changes how memory is backed,
// never what it holds.
func TestAdviseHugeKeepsBytes(t *testing.T) {
	slab := make([]uint64, 2*HugePage/8)
	for i := range slab {
		slab[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	AdviseHuge(slab)
	for i := range slab {
		if slab[i] != uint64(i)*0x9e3779b97f4a7c15 {
			t.Fatalf("word %d changed to %#x", i, slab[i])
		}
	}
}

// TestHugeSpan: the advised range is every huge page the allocation
// spans and the one after, and a nil, empty or sub-page range advises
// nothing.
func TestHugeSpan(t *testing.T) {
	const h = HugePage
	for _, c := range []struct {
		name       string
		p, n       uintptr
		start, end uintptr
	}{
		{"nil", 0, basePage, 0, 0},
		{"empty", 3*h + 64, 0, 0, 0},
		{"sub-page", 3*h + 64, basePage - 1, 0, 0},
		{"one page inside", 3*h + 64, basePage, 3 * h, 5 * h},
		{"aligned whole page", 3 * h, h, 3 * h, 5 * h},
		{"straddles a boundary", 4*h - 64, basePage, 3 * h, 6 * h},
		{"two pages and a bit", 3*h + 8, 2 * h, 3 * h, 7 * h},
	} {
		start, end := hugeSpan(c.p, c.n)
		if start != c.start || end != c.end {
			t.Errorf("%s: hugeSpan(%#x, %#x) = [%#x, %#x), want [%#x, %#x)", c.name, c.p, c.n, start, end, c.start, c.end)
		}
	}
	// The no-op cases end before the syscall.
	AdviseHuge[int](nil)
	AdviseHuge([]int{})
	AdviseHuge(make([]byte, basePage-1))
}

// TestHugePagesCarried: the calendars SetCalendars builds, splitting or
// merging, and the ones a Restore refills keep the kernel's huge-page
// setting, and a kernel that never asked for it stays off.
func TestHugePagesCarried(t *testing.T) {
	huge := func(k *Kernel) (on, off int) {
		for i := range k.cals {
			if k.cals[i].huge {
				on++
			} else {
				off++
			}
		}
		return on, off
	}
	for _, use := range []bool{false, true} {
		k, s := newScript()
		if use {
			k.UseHugePages()
		}
		for i := int32(0); i < 64; i++ {
			k.At(Time(1+i%9), s.base+i%4, opLog, i, 0, 0) // calendar i mod 4 once split
		}
		k.SetCalendars(4)
		if on, off := huge(k); use && off > 0 || !use && on > 0 {
			t.Errorf("UseHugePages=%v: after SetCalendars(4) %d calendars huge, %d not", use, on, off)
		}
		k.Run(4)
		snap, err := k.Snapshot(nil)
		if err != nil {
			t.Fatal(err)
		}
		k.SetCalendars(1)
		if err := k.Restore(snap, nil); err != nil {
			t.Fatal(err)
		}
		if on, off := huge(k); use && off > 0 || !use && on > 0 {
			t.Errorf("UseHugePages=%v: after SetCalendars(1) and Restore %d calendars huge, %d not", use, on, off)
		}
		k.Run(0)
		if len(s.log) != 64 {
			t.Errorf("UseHugePages=%v: %d events ran, want 64", use, len(s.log))
		}
	}
}
