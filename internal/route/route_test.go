package route

import (
	"testing"

	"hyperx/internal/rng"
)

func TestSelectMinWeightPrefersLowCongestion(t *testing.T) {
	cands := []Candidate{
		{Port: 0, HopsLeft: 3, Load: 100},
		{Port: 1, HopsLeft: 4, Deroute: true, Load: 2},
	}
	// (100+1)*3 = 303 vs (2+1)*4 = 12: the longer, colder path wins.
	if got := SelectMinWeight(cands, rng.New(1)); got != 1 {
		t.Errorf("selected %d, want the cold deroute", got)
	}
}

func TestSelectMinWeightZeroLoadPrefersMinimal(t *testing.T) {
	cands := []Candidate{
		{Port: 0, HopsLeft: 4, Deroute: true},
		{Port: 1, HopsLeft: 3},
		{Port: 2, HopsLeft: 4, Deroute: true},
	}
	// All loads zero: the +1 offset makes weight = hopcount, minimal wins.
	if got := SelectMinWeight(cands, rng.New(1)); got != 1 {
		t.Errorf("selected %d, want the minimal candidate at zero load", got)
	}
}

func TestSelectMinWeightTieBreaksUniformly(t *testing.T) {
	cands := []Candidate{
		{Port: 0, HopsLeft: 3},
		{Port: 1, HopsLeft: 3},
		{Port: 2, HopsLeft: 3},
	}
	counts := make([]int, 3)
	rs := rng.New(1)
	for i := 0; i < 3000; i++ {
		counts[SelectMinWeight(cands, rs)]++
	}
	for i, c := range counts {
		if c < 800 || c > 1200 {
			t.Errorf("tie-break skewed: candidate %d chosen %d/3000", i, c)
		}
	}
}

func TestSelectMinWeightNoCandidates(t *testing.T) {
	if got := SelectMinWeight(nil, rng.New(1)); got != -1 {
		t.Errorf("selected %d from no candidates, want -1", got)
	}
}

func TestCommitMinimalHop(t *testing.T) {
	p := &Packet{}
	p.Reset()
	Commit(p, &Candidate{Class: 1, NewPhase: 1})
	if p.Hops != 1 || p.Class != 1 || p.Phase != 1 || p.LastDerDim != -1 {
		t.Errorf("after minimal commit: %+v", p)
	}
	if p.Derouted != 0 {
		t.Errorf("minimal hop set deroute mask")
	}
}

func TestCommitDeroute(t *testing.T) {
	p := &Packet{}
	p.Reset()
	Commit(p, &Candidate{Deroute: true, Dim: 2, Class: 1})
	if p.Derouted != 1<<2 || p.LastDerDim != 2 {
		t.Errorf("after deroute commit: %+v", p)
	}
	// A following minimal hop clears LastDerDim but keeps the mask.
	Commit(p, &Candidate{Class: 0})
	if p.LastDerDim != -1 || p.Derouted != 1<<2 {
		t.Errorf("after subsequent minimal: %+v", p)
	}
	if p.Hops != 2 {
		t.Errorf("hops = %d", p.Hops)
	}
}

func TestCommitIntermediate(t *testing.T) {
	p := &Packet{}
	p.Reset()
	Commit(p, &Candidate{SetInter: true, Inter: 42})
	if p.Inter != 42 {
		t.Errorf("inter = %d", p.Inter)
	}
	Commit(p, &Candidate{}) // no SetInter: unchanged
	if p.Inter != 42 {
		t.Errorf("inter clobbered: %d", p.Inter)
	}
	Commit(p, &Candidate{SetInter: true, Inter: -1})
	if p.Inter != -1 {
		t.Errorf("inter not cleared: %d", p.Inter)
	}
}

func TestPacketReset(t *testing.T) {
	p := &Packet{Inter: 9, Phase: 2, Hops: 5, Class: 3, VC: 4, Derouted: 7, LastDerDim: 1}
	p.Reset()
	if p.Inter != -1 || p.Phase != 0 || p.Hops != 0 || p.Class != 0 || p.VC != -1 ||
		p.Derouted != 0 || p.LastDerDim != -1 {
		t.Errorf("reset left state: %+v", p)
	}
}
