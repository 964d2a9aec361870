package main

import (
	"bytes"
	"fmt"

	"potemkin"
)

// check runs the workload's output checks and records any failure in
// res. A failure marks the run incorrect; it is never turned into a
// metric.
func (b *bench) check(samples []sample, trs []*tracedResult, res *result) error {
	fail := func(format string, args ...any) {
		res.Correct = false
		res.problems = append(res.problems, fmt.Sprintf(format, args...))
	}
	ref := samples[0]
	for i, s := range samples[1:] {
		if s.stats != ref.stats {
			fail("untraced iteration %d differs from iteration 0: %v vs %v", i+1, s.stats, ref.stats)
		}
	}
	for _, tr := range trs {
		if want := countsOf(ref.stats); tr.counts != want {
			fail("traced run: counts %+v differ from the facade's %+v", tr.counts, want)
		}
	}
	switch b.name {
	case "outbreak":
		seq, err := b.sequentialScorecard()
		if err != nil {
			return err
		}
		for i, s := range samples {
			if p := compareScorecards(s.card, seq); p != "" {
				fail("iteration %d: %s", i, p)
			}
		}
		for _, tr := range trs {
			if p := compareScorecards(tr.card, seq); p != "" {
				fail("traced run: %s", p)
			}
		}
	case "wire":
		want, err := b.sliceReplayStats()
		if err != nil {
			return err
		}
		for i, s := range samples {
			if p := wireLoss(s.sent, uint64(s.wire.Injected), s.wire.Ingest.Dropped, s.wire.Ingest.FrameErrors, s.wire.Ingest.SeqGaps); p != "" {
				fail("iteration %d: %s", i, p)
			}
			if s.stats != want {
				fail("iteration %d: wire stats %v differ from Replay(SliceSource) stats %v", i, s.stats, want)
			}
		}
		for _, tr := range trs {
			if p := wireLoss(tr.sent, uint64(tr.injected), tr.ingest.Dropped, tr.ingest.FrameErrors, tr.ingest.SeqGaps); p != "" {
				fail("traced run: %s", p)
			}
		}
	}
	return nil
}

// compareScorecards reports whether a scorecard differs, byte for byte,
// from the non-parallel engine's ("" when identical).
func compareScorecards(got, want []byte) string {
	if bytes.Equal(got, want) {
		return ""
	}
	n := 0
	for n < len(got) && n < len(want) && got[n] == want[n] {
		n++
	}
	return fmt.Sprintf("parallel scorecard differs from the non-parallel one at byte %d (%d vs %d bytes)", n, len(got), len(want))
}

// wireLoss reports any frame the wire path lost ("" for none).
func wireLoss(sent, injected, dropped, frameErrors, seqGaps uint64) string {
	if sent == injected && dropped == 0 && frameErrors == 0 && seqGaps == 0 {
		return ""
	}
	return fmt.Sprintf("wire loss: sent %d, injected %d, dropped %d, frame errors %d, sequence gaps %d",
		sent, injected, dropped, frameErrors, seqGaps)
}

// sequentialScorecard runs the campaign on the non-parallel engine at
// the same seed and shard count.
func (b *bench) sequentialScorecard() ([]byte, error) {
	o, err := b.options()
	if err != nil {
		return nil, err
	}
	o.Parallel = false
	card, err := potemkin.RunScenario(o)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = card.WriteJSON(&buf)
	return buf.Bytes(), err
}

// sliceReplayStats replays the wire workload's records in process: the
// stats a lossless wire run must reproduce exactly.
func (b *bench) sliceReplayStats() (potemkin.Stats, error) {
	o, err := b.options()
	if err != nil {
		return potemkin.Stats{}, err
	}
	o.Wire = nil
	hf, err := potemkin.New(o)
	if err != nil {
		return potemkin.Stats{}, err
	}
	defer hf.Close()
	if _, err := hf.Replay(potemkin.SliceSource(b.recs)); err != nil {
		return potemkin.Stats{}, err
	}
	return hf.Stats(), nil
}
