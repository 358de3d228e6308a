package topology

// Table/arithmetic agreement tests. The public HyperX accessors are table
// lookups (tables.go); the mixed-radix arithmetic they replaced survives
// as the *Arith reference implementations. These properties assert the
// two agree everywhere over randomized shapes drawn from the same clamp
// the FuzzCoordRoundTrip corpus uses, plus the paper-scale 8x8x8 t=8
// instance, so a table-construction bug cannot hide behind a matching bug
// in the fast path.

import (
	"testing"

	"hyperx/internal/rng"
)

// checkTablesAgainstArith exhaustively compares every table-backed
// accessor with its arithmetic reference for one router.
func checkTablesAgainstArith(t *testing.T, h *HyperX, r int) {
	t.Helper()
	for d := range h.Widths {
		if got, want := h.CoordDigit(r, d), h.CoordDigitArith(r, d); got != want {
			t.Fatalf("%s: CoordDigit(%d,%d) = %d, arith %d", h.Name(), r, d, got, want)
		}
		base, n := h.DimPortBlock(d)
		if base != h.dimOff[d] || n != h.Widths[d]-1 {
			t.Fatalf("%s: DimPortBlock(%d) = (%d,%d), want (%d,%d)",
				h.Name(), d, base, n, h.dimOff[d], h.Widths[d]-1)
		}
		own := h.CoordDigitArith(r, d)
		for v := 0; v < h.Widths[d]; v++ {
			if v == own {
				continue
			}
			if got, want := h.DimPort(r, d, v), dimPortArith(h, d, own, v); got != want {
				t.Fatalf("%s: DimPort(%d,%d,%d) = %d, arith %d", h.Name(), r, d, v, got, want)
			}
		}
	}
	for p := 0; p < h.NumPorts(); p++ {
		gd, gv := h.PortDim(r, p)
		wd, wv := h.PortDimArith(r, p)
		if gd != wd || gv != wv {
			t.Fatalf("%s: PortDim(%d,%d) = (%d,%d), arith (%d,%d)", h.Name(), r, p, gd, gv, wd, wv)
		}
		if gd < 0 {
			if peer := h.PeerRouter(r, p); peer != -1 {
				t.Fatalf("%s: PeerRouter(%d,%d) = %d for terminal port", h.Name(), r, p, peer)
			}
			continue
		}
		gr, gp := h.Peer(r, p)
		wr, wp := h.PeerArith(r, p)
		if gr != wr || gp != wp {
			t.Fatalf("%s: Peer(%d,%d) = (%d,%d), arith (%d,%d)", h.Name(), r, p, gr, gp, wr, wp)
		}
		if peer := h.PeerRouter(r, p); peer != wr {
			t.Fatalf("%s: PeerRouter(%d,%d) = %d, arith %d", h.Name(), r, p, peer, wr)
		}
	}
}

// TestTablesMatchArithRandom: table lookups agree with coordinate
// arithmetic over randomized shapes and routers.
func TestTablesMatchArithRandom(t *testing.T) {
	rs := rng.New(23)
	for trial := 0; trial < 200; trial++ {
		widths, terms := clampWidths(uint8(rs.Intn(256)), uint8(rs.Intn(256)), uint8(rs.Intn(256)), uint8(rs.Intn(256)))
		h := MustHyperX(widths, terms)
		a := rs.Intn(h.NumRouters())
		b := rs.Intn(h.NumRouters())
		checkTablesAgainstArith(t, h, a)
		if got, want := h.MinHops(a, b), h.MinHopsArith(a, b); got != want {
			t.Fatalf("%s: MinHops(%d,%d) = %d, arith %d", h.Name(), a, b, got, want)
		}
		if got, want := h.FirstUnalignedDim(a, b), h.FirstUnalignedDimArith(a, b); got != want {
			t.Fatalf("%s: FirstUnalignedDim(%d,%d) = %d, arith %d", h.Name(), a, b, got, want)
		}
	}
}

// TestTablesMatchArithPaperScale pins agreement on the paper's 8x8x8 t=8
// instance, sampling routers across the ID range including both corners.
func TestTablesMatchArithPaperScale(t *testing.T) {
	h := MustHyperX([]int{8, 8, 8}, 8)
	rs := rng.New(29)
	routers := []int{0, h.NumRouters() - 1}
	for i := 0; i < 30; i++ {
		routers = append(routers, rs.Intn(h.NumRouters()))
	}
	for _, r := range routers {
		checkTablesAgainstArith(t, h, r)
	}
}

// TestOfferedPorts: the candidate-scratch bound is the router-link port
// count plus one, and at paper scale it exceeds the historical fixed cap
// of 64... by being exactly 22 — the point is it is shape-derived, not
// assumed. A wide 1-D shape shows where a fixed 64 would have truncated.
func TestOfferedPorts(t *testing.T) {
	cases := []struct {
		widths []int
		terms  int
		want   int
	}{
		{[]int{4, 4, 4}, 4, 10},
		{[]int{8, 8, 8}, 8, 22},
		{[]int{100}, 2, 100}, // 99 laterals + 1: past any fixed cap of 64
	}
	for _, c := range cases {
		h := MustHyperX(c.widths, c.terms)
		if got := h.OfferedPorts(); got != c.want {
			t.Fatalf("%v t%d: OfferedPorts = %d, want %d", c.widths, c.terms, got, c.want)
		}
		if got := h.OfferedPorts(); got != h.NumPorts()-h.Terms+1 {
			t.Fatalf("%v t%d: OfferedPorts disagrees with radix", c.widths, c.terms)
		}
	}
}

// CoordDigitArith, MinHopsArith, PortDimArith, PeerArith, and
// FirstUnalignedDimArith are the pre-table coordinate-arithmetic
// implementations of the corresponding methods, kept test-only so the
// property tests can assert table/arithmetic agreement on randomized
// shapes.

// CoordDigitArith computes a coordinate digit by division.
func (h *HyperX) CoordDigitArith(r, d int) int {
	return (r / h.strides[d]) % h.Widths[d]
}

// MinHopsArith computes MinHops by per-dimension division.
func (h *HyperX) MinHopsArith(a, b int) int {
	hops := 0
	for d, w := range h.Widths {
		sa := (a / h.strides[d]) % w
		sb := (b / h.strides[d]) % w
		if sa != sb {
			hops++
		}
	}
	return hops
}

// FirstUnalignedDimArith computes FirstUnalignedDim by division.
func (h *HyperX) FirstUnalignedDimArith(a, b int) int {
	for d, w := range h.Widths {
		if (a/h.strides[d])%w != (b/h.strides[d])%w {
			return d
		}
	}
	return -1
}

// PortDimArith decodes a port by scanning the dimension offsets.
func (h *HyperX) PortDimArith(r, p int) (dim, peerVal int) {
	if p < h.Terms {
		return -1, -1
	}
	for d := len(h.Widths) - 1; d >= 0; d-- {
		if p >= h.dimOff[d] {
			idx := p - h.dimOff[d]
			own := h.CoordDigitArith(r, d)
			if idx >= own {
				idx++
			}
			return d, idx
		}
	}
	return -1, -1
}

// PeerArith computes the far side of a router link arithmetically.
func (h *HyperX) PeerArith(r, p int) (int, int) {
	d, v := h.PortDimArith(r, p)
	if d < 0 {
		panic("hyperx: Peer of non-router port")
	}
	own := h.CoordDigitArith(r, d)
	peer := r + (v-own)*h.strides[d]
	return peer, dimPortArith(h, d, v, own)
}
