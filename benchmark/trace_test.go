package main

import "testing"

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Trace: 1, Name: "phase", Start: 0, End: 100},
		// Two parallel children overlapping on [20,40): union [10,50) = 40.
		{ID: 2, Parent: 1, Trace: 1, Name: "fetch", Start: 10, End: 40},
		{ID: 3, Parent: 1, Trace: 1, Name: "fetch", Start: 20, End: 50},
		// A child running past its parent's end only covers up to the end.
		{ID: 4, Parent: 1, Trace: 1, Name: "fetch", Start: 90, End: 120},
		// A grandchild is covered by its own parent, not the phase.
		{ID: 5, Parent: 2, Trace: 1, Name: "dns", Start: 12, End: 18},
	}
	got := map[string]layerTime{}
	for _, lt := range selfTimes(spans) {
		got[lt.Name] = lt
	}
	ms := func(ns float64) float64 { return ns / 1e6 }
	if want := ms(100 - 40 - 10); got["phase"].SelfMS != want {
		t.Errorf("phase self = %v, want %v", got["phase"].SelfMS, want)
	}
	// fetch: 30-6 + 30 + 30 = 84 self out of 90 total.
	if got["fetch"].Count != 3 || got["fetch"].TotalMS != ms(90) || got["fetch"].SelfMS != ms(84) {
		t.Errorf("fetch = %+v", got["fetch"])
	}
	if got["dns"].SelfMS != ms(6) {
		t.Errorf("dns self = %v", got["dns"].SelfMS)
	}
}

func TestCoveredDisjointAndNested(t *testing.T) {
	p := span{Start: 0, End: 100}
	kids := []span{{Start: 60, End: 70}, {Start: 0, End: 10}, {Start: 2, End: 5}, {Start: 65, End: 80}}
	if got := covered(p, kids); got != 30 {
		t.Fatalf("covered = %d, want 30", got)
	}
}

func TestSpanHeaderRoundTrip(t *testing.T) {
	s := spanRef{id: 42, trace: 7}
	if got := parseSpanHeader(formatSpanHeader(s)); got.id != 42 || got.trace != 7 {
		t.Fatalf("round trip = %+v", got)
	}
	if got := parseSpanHeader("junk"); got.id != 0 {
		t.Fatalf("junk parsed as %+v", got)
	}
}
