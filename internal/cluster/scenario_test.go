package cluster

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"potemkin"
	"potemkin/internal/core"
	"potemkin/internal/scenario"
	"potemkin/internal/score"
	"potemkin/internal/telescope"
)

const (
	scenarioSeed  = 9
	scenarioSpace = "10.5.0.0/22"
)

// scenarioOptions is the facade configuration of one campaign run.
func scenarioOptions(t *testing.T, name string) potemkin.Options {
	t.Helper()
	campaign, err := potemkin.LoadScenario(name)
	if err != nil {
		t.Fatal(err)
	}
	return potemkin.Options{
		Seed:           scenarioSeed,
		MonitoredSpace: scenarioSpace,
		Servers:        4,
		GatewayShards:  2,
		Parallel:       true,
		Policy:         potemkin.InternalReflect,
		Scenario:       campaign,
	}
}

// scenarioEngineConfig builds the engine config and plan through the
// facade's own translation, from the same Options the facade oracle
// runs, so the cluster run below cannot drift from it.
func scenarioEngineConfig(t *testing.T, opts potemkin.Options) (core.ShardEngineConfig, *scenario.Plan) {
	t.Helper()
	ec, plan, err := potemkin.EngineConfig(opts)
	if err != nil {
		t.Fatalf("EngineConfig: %v", err)
	}
	return ec, plan
}

// startScenarioCluster is startCluster for campaign runs: both the
// coordinator and the workers build the scenario engine config (SPMD,
// like potemkind's cluster mode).
func startScenarioCluster(t *testing.T, name string) *clusterHarness {
	t.Helper()
	const workers = 2
	ec, _ := scenarioEngineConfig(t, scenarioOptions(t, name))
	tag := "scenario-test-" + name
	c, err := New(Config{
		Engine:            ec,
		ConfigTag:         tag,
		ListenAddr:        "127.0.0.1:0",
		Workers:           workers,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  5 * time.Second,
		RecoveryWait:      10 * time.Second,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	h := &clusterHarness{c: c, errs: make([]error, workers), workers: workers}
	for i := 0; i < workers; i++ {
		i := i
		wec, _ := scenarioEngineConfig(t, scenarioOptions(t, name))
		wc := WorkerConfig{
			Addr:              c.Addr().String(),
			Engine:            wec,
			ConfigTag:         tag,
			Name:              fmt.Sprintf("w%d", i),
			HeartbeatInterval: 50 * time.Millisecond,
			Logf:              t.Logf,
		}
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			h.errs[i] = RunWorker(wc)
		}()
	}
	if err := c.WaitReady(30 * time.Second); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	return h
}

// TestClusterScorecardMatchesFacade closes the acceptance loop on the
// scenario engine: the same campaign at the same seed and shard count,
// run once through the potemkin facade (parallel shard engine) and
// once through a real coordinator + two workers over TCP loopback, must
// emit byte-identical scorecards.
func TestClusterScorecardMatchesFacade(t *testing.T) {
	for _, name := range scenario.Names() {
		t.Run(name, func(t *testing.T) {
			opts := scenarioOptions(t, name)
			hf, err := potemkin.New(opts)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := hf.RunScenario()
			hf.Close()
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := oracle.WriteJSON(&want); err != nil {
				t.Fatal(err)
			}

			_, plan := scenarioEngineConfig(t, opts)
			h := startScenarioCluster(t, name)
			defer h.shutdown(t)
			if _, err := h.c.Replay(&telescope.SliceSource{Recs: plan.Records}, nil, plan.Settle); err != nil {
				t.Fatalf("cluster replay: %v", err)
			}
			res, err := h.c.Results()
			if err != nil {
				t.Fatalf("cluster results: %v", err)
			}
			card := score.Compute(plan.Facts("internal-reflect"), res.Metrics)
			var got bytes.Buffer
			if err := card.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want.Bytes(), got.Bytes()) {
				t.Errorf("cluster scorecard differs from facade:\n--- facade\n%s--- cluster\n%s", want.Bytes(), got.Bytes())
			}
		})
	}
}
