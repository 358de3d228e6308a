package topology

import (
	"fmt"
	"strings"
)

// HyperX is the generalized flat integer-lattice topology of Ahn et al.
// (SC '09): L dimensions, each fully connected, with Widths[d] routers per
// dimension and Terms terminals attached to every router.
//
// Router coordinates are mixed-radix numbers over Widths; router IDs place
// dimension 0 as the fastest-varying digit. Port layout per router:
//
//	[0, Terms)                          terminal ports
//	[Terms+off(d), Terms+off(d)+W_d-1)  dimension-d ports, ordered by the
//	                                    peer's coordinate in d (own skipped)
//
// where off(d) = sum of (W_e - 1) for e < d.
type HyperX struct {
	Widths []int // routers per dimension (W_d >= 2)
	Terms  int   // terminals per router (t >= 1)

	dimOff  []int // port offset of each dimension's port block
	nr      int   // number of routers
	radix   int   // ports per router
	strides []int // mixed-radix strides for coordinate <-> id

	tab tables // precomputed digit/port/neighbor lookups (see tables.go)
}

// NewHyperX builds a HyperX with the given per-dimension widths and
// terminals per router.
func NewHyperX(widths []int, terms int) (*HyperX, error) {
	if len(widths) == 0 {
		return nil, fmt.Errorf("hyperx: need at least one dimension")
	}
	if terms < 1 {
		return nil, fmt.Errorf("hyperx: terminals per router must be >= 1, got %d", terms)
	}
	h := &HyperX{Widths: append([]int(nil), widths...), Terms: terms}
	h.nr = 1
	h.radix = terms
	h.dimOff = make([]int, len(widths))
	h.strides = make([]int, len(widths))
	off := terms
	for d, w := range widths {
		if w < 2 {
			return nil, fmt.Errorf("hyperx: dimension %d width must be >= 2, got %d", d, w)
		}
		if w > 1<<15 {
			return nil, fmt.Errorf("hyperx: dimension %d width %d exceeds table limit %d", d, w, 1<<15)
		}
		h.dimOff[d] = off
		h.strides[d] = h.nr
		off += w - 1
		h.radix += w - 1
		h.nr *= w
	}
	h.buildTables()
	return h, nil
}

// MustHyperX is NewHyperX that panics on configuration error; intended for
// tests and examples with constant parameters.
func MustHyperX(widths []int, terms int) *HyperX {
	h, err := NewHyperX(widths, terms)
	if err != nil {
		panic(err)
	}
	return h
}

// Name implements Topology.
func (h *HyperX) Name() string {
	parts := make([]string, len(h.Widths))
	for i, w := range h.Widths {
		parts[i] = fmt.Sprint(w)
	}
	return fmt.Sprintf("hyperx-%s-t%d", strings.Join(parts, "x"), h.Terms)
}

// NumDims returns the number of dimensions.
func (h *HyperX) NumDims() int { return len(h.Widths) }

// NumRouters implements Topology.
func (h *HyperX) NumRouters() int { return h.nr }

// NumTerminals implements Topology.
func (h *HyperX) NumTerminals() int { return h.nr * h.Terms }

// NumPorts implements Topology.
func (h *HyperX) NumPorts() int { return h.radix }

// Coord writes the mixed-radix coordinate of router r into out (length
// NumDims) and returns it. Passing a caller-owned slice avoids allocation
// in routing hot paths.
func (h *HyperX) Coord(r int, out []int) []int {
	L := len(h.Widths)
	row := h.tab.digits[r*L : r*L+L]
	for d := range out {
		out[d] = int(row[d])
	}
	return out
}

// CoordDigit returns coordinate digit d of router r without materializing
// the full coordinate.
func (h *HyperX) CoordDigit(r, d int) int {
	return int(h.tab.digits[r*len(h.Widths)+d])
}

// RouterAt returns the router ID at the given coordinate.
func (h *HyperX) RouterAt(coord []int) int {
	r := 0
	for d := len(coord) - 1; d >= 0; d-- {
		r = r*h.Widths[d] + coord[d]
	}
	return r
}

// WithDigit returns the router obtained from r by replacing coordinate
// digit d with v.
func (h *HyperX) WithDigit(r, d, v int) int {
	cur := h.CoordDigit(r, d)
	return r + (v-cur)*h.strides[d]
}

// DimPort returns the output port of router r that reaches coordinate
// value v in dimension d. It panics if v equals r's own coordinate.
func (h *HyperX) DimPort(r, d, v int) int {
	w := h.Widths[d]
	p := h.tab.portOf[h.tab.dimBase[d]+h.CoordDigit(r, d)*w+v]
	if p < 0 {
		panic("hyperx: DimPort to own coordinate")
	}
	return int(p)
}

// PortDim decodes a router-link port into its dimension and the peer's
// coordinate value in that dimension. It returns (-1, -1) for terminal
// ports.
func (h *HyperX) PortDim(r, p int) (dim, peerVal int) {
	d := int(h.tab.portDim[p])
	if d < 0 {
		return -1, -1
	}
	own := h.CoordDigit(r, d)
	return d, int(h.tab.peerVal[h.tab.valBase[d]+own*(h.Widths[d]-1)+(p-h.dimOff[d])])
}

// PortKind implements Topology.
func (h *HyperX) PortKind(r, p int) LinkKind {
	switch {
	case p < 0 || p >= h.radix:
		return Unused
	case p < h.Terms:
		return Terminal
	default:
		// Dimension 0 is packaged closest (in-cabinet); call it Local and
		// all higher dimensions Global. Routing does not depend on this;
		// the cost model and channel latencies may.
		if h.tab.portDim[p] == 0 {
			return Local
		}
		return Global
	}
}

// Peer implements Topology.
func (h *HyperX) Peer(r, p int) (int, int) {
	peer := h.PeerRouter(r, p)
	if peer < 0 {
		panic("hyperx: Peer of non-router port")
	}
	d := int(h.tab.portDim[p])
	w := h.Widths[d]
	back := h.tab.portOf[h.tab.dimBase[d]+h.CoordDigit(peer, d)*w+h.CoordDigit(r, d)]
	return peer, int(back)
}

// PeerRouter returns the router on the far side of port p of router r, or
// -1 for terminal ports — a single table load, for routing hot paths that
// do not need the peer's ingress port.
func (h *HyperX) PeerRouter(r, p int) int {
	return int(h.tab.peer[r*h.radix+p])
}

// DimPortBlock returns the first port and port count of dimension d's
// block. Iterating [base, base+n) visits the dimension's peers in
// ascending coordinate order with the router's own digit skipped — the
// same order the deroute loops in internal/routing enumerate laterals, so
// they can walk ports directly instead of re-deriving them per digit.
func (h *HyperX) DimPortBlock(d int) (base, n int) {
	return h.dimOff[d], h.Widths[d] - 1
}

// OfferedPorts returns the largest candidate set any routing decision can
// offer on this topology: every router-link port (minimal ports are part
// of their dimension's block), plus one spare so an algorithm may add a
// terminal/eject entry. The network sizes its candidate scratch from this
// so paper-scale radix can never force a mid-decision grow.
func (h *HyperX) OfferedPorts() int {
	return h.radix - h.Terms + 1
}

// PortTerminal implements Topology.
func (h *HyperX) PortTerminal(r, p int) int {
	if p < 0 || p >= h.Terms {
		return -1
	}
	return r*h.Terms + p
}

// TerminalPort implements Topology.
func (h *HyperX) TerminalPort(t int) (int, int) {
	return t / h.Terms, t % h.Terms
}

// MinHops implements Topology: the number of differing coordinate digits,
// since every dimension is fully connected.
func (h *HyperX) MinHops(a, b int) int {
	L := len(h.Widths)
	da := h.tab.digits[a*L : a*L+L]
	db := h.tab.digits[b*L : b*L+L]
	hops := 0
	for d := range da {
		if da[d] != db[d] {
			hops++
		}
	}
	return hops
}

// UnalignedDims appends to buf the dimensions in which routers a and b
// differ, in ascending order, and returns the result.
func (h *HyperX) UnalignedDims(a, b int, buf []int) []int {
	L := len(h.Widths)
	da := h.tab.digits[a*L : a*L+L]
	db := h.tab.digits[b*L : b*L+L]
	for d := range da {
		if da[d] != db[d] {
			buf = append(buf, d)
		}
	}
	return buf
}

// FirstUnalignedDim returns the lowest dimension in which a and b differ,
// or -1 if a == b. Dimension-ordered algorithms traverse dimensions in
// ascending order.
func (h *HyperX) FirstUnalignedDim(a, b int) int {
	L := len(h.Widths)
	da := h.tab.digits[a*L : a*L+L]
	db := h.tab.digits[b*L : b*L+L]
	for d := range da {
		if da[d] != db[d] {
			return d
		}
	}
	return -1
}
