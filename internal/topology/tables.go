package topology

// Precomputed routing tables for HyperX.
//
// Every routing decision converts router IDs to mixed-radix digits and
// digits to port numbers; at paper scale (8x8x8 t=8, radix 29) that
// arithmetic — integer division and modulo per digit, per hop — is the
// single largest CPU cost outside the event kernel. NewHyperX therefore
// precomputes the complete digit/port/neighbor algebra once, and the
// public accessors (CoordDigit, DimPort, PortDim, Peer, MinHops,
// FirstUnalignedDim, ...) become table lookups. The arithmetic
// definitions survive as the *Arith reference implementations in
// tables_test.go, which the property tests replay against the tables over
// randomized shapes; only dimPortArith, which the table build itself
// uses, lives here.
//
// Table footprint is O(routers x radix): at the paper's 512-router scale
// about 60 KiB, dominated by the neighbor table. The per-dimension port
// tables are O(sum W_d^2) and shared by all routers, because a router's
// port layout within a dimension depends only on its own digit there.
type tables struct {
	digits  []uint16 // [r*L + d] -> digit of router r in dimension d
	portOf  []int16  // dimBase[d] + own*W_d + v -> port reaching digit v in dim d (-1 when v == own)
	peerVal []uint16 // valBase[d] + own*(W_d-1) + idx -> peer digit of port dimOff[d]+idx
	peer    []int32  // [r*radix + p] -> peer router over port p (-1 for terminal ports)
	portDim []int8   // [p] -> dimension of port p, -1 for terminal ports

	dimBase []int // portOf block offset per dimension
	valBase []int // peerVal block offset per dimension
}

// buildTables fills the lookup tables from the already-validated shape.
// Called once by NewHyperX; the instance is immutable afterwards.
func (h *HyperX) buildTables() {
	L := len(h.Widths)
	nr, radix := h.nr, h.radix

	h.tab.dimBase = make([]int, L)
	h.tab.valBase = make([]int, L)
	szPort, szVal := 0, 0
	for d, w := range h.Widths {
		h.tab.dimBase[d] = szPort
		h.tab.valBase[d] = szVal
		szPort += w * w
		szVal += w * (w - 1)
	}

	// portOf / peerVal: for each dimension, indexed by the router's own
	// digit — the only part of a router's identity the in-dimension port
	// layout depends on.
	h.tab.portOf = make([]int16, szPort)
	h.tab.peerVal = make([]uint16, szVal)
	for d, w := range h.Widths {
		for own := 0; own < w; own++ {
			for v := 0; v < w; v++ {
				i := h.tab.dimBase[d] + own*w + v
				if v == own {
					h.tab.portOf[i] = -1
					continue
				}
				h.tab.portOf[i] = int16(dimPortArith(h, d, own, v))
			}
			for idx := 0; idx < w-1; idx++ {
				v := idx
				if idx >= own {
					v++
				}
				h.tab.peerVal[h.tab.valBase[d]+own*(w-1)+idx] = uint16(v)
			}
		}
	}

	// portDim: dimension of each router-link port (shared by all routers).
	h.tab.portDim = make([]int8, radix)
	for p := 0; p < radix; p++ {
		h.tab.portDim[p] = -1
		for d := L - 1; d >= 0; d-- {
			if p >= h.dimOff[d] {
				h.tab.portDim[p] = int8(d)
				break
			}
		}
	}

	// digits: the mixed-radix coordinate of every router, flattened.
	h.tab.digits = make([]uint16, nr*L)
	for r := 0; r < nr; r++ {
		v := r
		for d, w := range h.Widths {
			h.tab.digits[r*L+d] = uint16(v % w)
			v /= w
		}
	}

	// peer: the neighbor router across every port.
	h.tab.peer = make([]int32, nr*radix)
	for r := 0; r < nr; r++ {
		row := h.tab.peer[r*radix : (r+1)*radix]
		for p := 0; p < h.Terms; p++ {
			row[p] = -1
		}
		for p := h.Terms; p < radix; p++ {
			d := int(h.tab.portDim[p])
			own := int(h.tab.digits[r*L+d])
			v := int(h.tab.peerVal[h.tab.valBase[d]+own*(h.Widths[d]-1)+(p-h.dimOff[d])])
			row[p] = int32(r + (v-own)*h.strides[d])
		}
	}
}

// dimPortArith is the arithmetic definition of DimPort given the router's
// own digit: the reference the tables are built from and checked against.
func dimPortArith(h *HyperX, d, own, v int) int {
	idx := v
	if v > own {
		idx--
	}
	return h.dimOff[d] + idx
}
