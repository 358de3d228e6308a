package network

import (
	"testing"
	"unsafe"

	"hyperx/internal/core"
	"hyperx/internal/topology"
)

// TestOutputPortHotLine: everything that routing views, VC selection and
// arbitration read — with up to 8 VCs the credits too — sits in an
// outputPort's first 64 bytes, a port spans at most two cache lines, and
// the port slab starts on a line boundary, so the hot half of every port
// is exactly one line. Growing a hot scalar or reordering the struct
// silently spreads an attempt over two lines.
func TestOutputPortHotLine(t *testing.T) {
	var o outputPort
	hot := []struct {
		name       string
		off, bytes uintptr
	}{
		{"busyUntil", unsafe.Offsetof(o.busyUntil), unsafe.Sizeof(o.busyUntil)},
		{"attemptAt", unsafe.Offsetof(o.attemptAt), unsafe.Sizeof(o.attemptAt)},
		{"queuedFlits", unsafe.Offsetof(o.queuedFlits), unsafe.Sizeof(o.queuedFlits)},
		{"wbase", unsafe.Offsetof(o.wbase), unsafe.Sizeof(o.wbase)},
		{"nwait", unsafe.Offsetof(o.nwait), unsafe.Sizeof(o.nwait)},
		{"toTerminal", unsafe.Offsetof(o.toTerminal), unsafe.Sizeof(o.toTerminal)},
		{"dead", unsafe.Offsetof(o.dead), unsafe.Sizeof(o.dead)},
		{"credits[0:8]", unsafe.Offsetof(o.credits), 8 * unsafe.Sizeof(o.credits[0])},
	}
	for _, f := range hot {
		if end := f.off + f.bytes; end > 64 {
			t.Errorf("hot field %s ends at byte %d, past the first cache line", f.name, end)
		}
	}
	if n := unsafe.Sizeof(o); n > 128 || n%64 != 0 {
		t.Errorf("sizeof(outputPort) = %d, want one or two whole cache lines", n)
	}
	if n := len(o.credits); n != maxVCs {
		t.Errorf("inline credits hold %d VCs, want maxVCs = %d", n, maxVCs)
	}

	for _, shape := range [][]int{{4, 4}, {8, 8, 8}} {
		h := topology.MustHyperX(shape, 2)
		n := buildNet(t, h, core.NewDimWAR(h), nil)
		for _, r := range n.Routers {
			if a := uintptr(unsafe.Pointer(&r.out[0])); a%64 != 0 {
				t.Fatalf("%v: router %d's ports start at %#x, not 64-byte aligned", shape, r.id, a)
			}
		}
	}
}
