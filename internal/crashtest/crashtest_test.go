package crashtest

import (
	"fmt"
	"strings"
	"testing"

	"smalldb/internal/obs"
)

// TestPlanDeterministic: the same seed must generate the identical workload
// and fingerprints (that is what makes (seed, n) a replayable coordinate),
// and different seeds must diverge.
func TestPlanDeterministic(t *testing.T) {
	a, b := makePlan(7, 40), makePlan(7, 40)
	if len(a.fp) != 41 || len(a.updates) != 40 {
		t.Fatalf("plan sizes: %d fp, %d updates", len(a.fp), len(a.updates))
	}
	for i := range a.fp {
		if a.fp[i] != b.fp[i] {
			t.Fatalf("same seed diverged at prefix %d", i)
		}
	}
	c := makePlan(8, 40)
	if a.fp[40] == c.fp[40] {
		t.Error("different seeds produced the same final fingerprint")
	}
}

// TestPlanCoversUpdateKinds: a modest plan must include the multi-arc and
// structural updates, or the atomicity checks would be vacuous.
func TestPlanCoversUpdateKinds(t *testing.T) {
	p := makePlan(1, 60)
	kinds := map[string]int{}
	for _, u := range p.updates {
		kinds[fmt.Sprintf("%T", u)]++
	}
	for _, want := range []string{"*nameserver.SetValue", "*nameserver.PutSubtree", "*nameserver.DeleteSubtree", "*nameserver.Move"} {
		if kinds[want] == 0 {
			t.Errorf("plan of 60 updates contains no %s (got %v)", want, kinds)
		}
	}
}

// TestStoreTorture sweeps every crash point of a small store-mode workload.
func TestStoreTorture(t *testing.T) {
	res, err := Run(Config{Seed: 1, Ops: 15, Mode: ModeStore, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if res.Points < 20 {
		t.Fatalf("suspiciously few crash points: %d", res.Points)
	}
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
}

// TestReplicaTorture sweeps every crash point of a small replica-mode
// workload, including the anti-entropy catch-up after each recovery.
func TestReplicaTorture(t *testing.T) {
	res, err := Run(Config{Seed: 2, Ops: 10, Mode: ModeReplica, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
}

// TestNoSyncSelfTest: running the store without log syncs forfeits the
// commit point, and the harness must catch the resulting lost
// acknowledged updates — proving the torture actually detects durability
// bugs rather than vacuously passing.
func TestNoSyncSelfTest(t *testing.T) {
	res, err := Run(Config{Seed: 1, Ops: 12, Mode: ModeStore, UnsafeNoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range res.Violations {
		if strings.Contains(v.Msg, "durability") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no-sync run reported no durability violations (%d total): the harness is blind", len(res.Violations))
	}
}

// TestNoSyncReplicaRecovers: the same forfeited durability is survivable
// with a replica — the peer restores every acknowledged update (§4), so
// the sweep must be clean.
func TestNoSyncReplicaRecovers(t *testing.T) {
	res, err := Run(Config{Seed: 1, Ops: 10, Mode: ModeReplica, UnsafeNoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
}

// TestOverlapStoreTorture sweeps every crash point of a store-mode
// workload that commits updates *while* each checkpoint is in flight — the
// acceptance sweep for the checkpoint's tail and flip: an update
// acknowledged mid-checkpoint must survive a crash at any subsequent op,
// whether recovery reads the old log, the new log, or either side of the
// version flip.
func TestOverlapStoreTorture(t *testing.T) {
	res, err := Run(Config{Seed: 1, Ops: 15, Mode: ModeStore, OverlapCheckpoints: true, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if res.Points < 20 {
		t.Fatalf("suspiciously few crash points: %d", res.Points)
	}
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
}

// TestOverlapReplicaTorture runs the same mid-window sweep on a replica
// node, where every acknowledged update was also pushed to the peer.
func TestOverlapReplicaTorture(t *testing.T) {
	res, err := Run(Config{Seed: 2, Ops: 10, Mode: ModeReplica, OverlapCheckpoints: true, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
}

// TestDeltaChainCompactionTorture sweeps a store-mode workload whose
// checkpoints are incremental deltas with the chain capped at one link, so
// the checkpoint after each delta re-bases onto a fresh full image: crash
// points land inside delta writes, inside the chain's version commits, and
// inside the full-base rewrite. Recovery at each point loads base +
// surviving deltas + log replay and must still land on the oracle prefix.
func TestDeltaChainCompactionTorture(t *testing.T) {
	res, err := Run(Config{Seed: 1, Ops: 15, Mode: ModeStore, CheckpointEvery: 3, MaxDeltaChain: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if res.Points < 20 {
		t.Fatalf("suspiciously few crash points: %d", res.Points)
	}
	checkDeltaChainSweep(t, res)
}

// TestOverlapDeltaChainTorture commits updates while every checkpoint is in
// flight — including the re-bases the short chain cap forces — so
// the sweep covers updates acknowledged while a delta or a fresh full base
// is in flight.
func TestOverlapDeltaChainTorture(t *testing.T) {
	res, err := Run(Config{Seed: 1, Ops: 12, Mode: ModeStore, CheckpointEvery: 3, MaxDeltaChain: 1,
		OverlapCheckpoints: true, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	checkDeltaChainSweep(t, res)
}

// TestReplicaDeltaChainTorture runs the short-chain sweep on a replica
// node: the delta chain, the re-base, and the anti-entropy catch-up after
// each recovery all compose.
func TestReplicaDeltaChainTorture(t *testing.T) {
	res, err := Run(Config{Seed: 2, Ops: 10, Mode: ModeReplica, CheckpointEvery: 3, MaxDeltaChain: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	checkDeltaChainSweep(t, res)
}

// checkDeltaChainSweep fails a delta-chain sweep that found violations, or
// whose workload wrote no delta or no re-base, so never swept inside one.
func checkDeltaChainSweep(t *testing.T, res *Result) {
	t.Helper()
	if res.Deltas == 0 || res.Rebases == 0 {
		t.Errorf("the workload wrote %d deltas and %d re-bases; the sweep needs both", res.Deltas, res.Rebases)
	}
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
}

// TestNoSyncOverlapReplicaRecovers sweeps a replica that forfeits local
// durability (§4: a lost update is restored from the peer) while commits
// land while checkpoints are in flight. No-sync stores run the one
// checkpoint protocol like every other: with no commit point there is
// nothing for the tail to preserve, and its file order must still recover a
// prefix of the updates — which the peer then completes — at every crash
// point.
func TestNoSyncOverlapReplicaRecovers(t *testing.T) {
	res, err := Run(Config{Seed: 3, Ops: 12, Mode: ModeReplica, UnsafeNoSync: true,
		OverlapCheckpoints: true, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if res.Points < 20 {
		t.Fatalf("suspiciously few crash points: %d", res.Points)
	}
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
}

// TestPointRangeAndStride: From/To/Stride select the requested subset.
func TestPointRangeAndStride(t *testing.T) {
	res, err := Run(Config{Seed: 3, Ops: 8, Mode: ModeStore, From: 4, To: 12, Stride: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Points != 5 { // 4,6,8,10,12
		t.Errorf("points = %d, want 5", res.Points)
	}
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
}

// TestStoreTortureWithReaders re-runs the store sweep with concurrent
// snapshot readers validating lock-free enquiries against the oracle at
// every crash point — the interleaving the versioned read path must
// survive: crashes landing while pinned snapshots are live.
func TestStoreTortureWithReaders(t *testing.T) {
	res, err := Run(Config{Seed: 1, Ops: 12, Mode: ModeStore, Readers: 4, OverlapCheckpoints: true, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
}

// TestReplicaTortureWithReaders does the same for replica mode, where the
// readers also overlap anti-entropy catch-up on the recovered node.
func TestReplicaTortureWithReaders(t *testing.T) {
	if testing.Short() {
		t.Skip("replica sweep with readers is the slowest sweep variant")
	}
	res, err := Run(Config{Seed: 2, Ops: 8, Mode: ModeReplica, Readers: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
}

// TestReadersDeterminism: adding readers must not change the workload's
// file-system op indexing — the property that keeps (seed, point)
// replayable. The reference op counts with and without readers must match,
// for the bare store and — where every update also crosses the point's
// network and comes back as a traced push — for the replica group.
func TestReadersDeterminism(t *testing.T) {
	for _, mode := range []string{ModeStore, ModeReplica} {
		without, err := Run(Config{Seed: 3, Ops: 10, Mode: mode, To: 1})
		if err != nil {
			t.Fatal(err)
		}
		with, err := Run(Config{Seed: 3, Ops: 10, Mode: mode, To: 1, Readers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if without.TotalFSOps != with.TotalFSOps {
			t.Fatalf("%s: readers changed the op indexing: %d fs ops without, %d with",
				mode, without.TotalFSOps, with.TotalFSOps)
		}
	}
}

// TestPointPanicIsAViolation: a panic inside a point — here a runner with
// no plan, so the first touch of the workload dereferences nil — must
// surface as a replayable "harness panic" violation of that point rather
// than kill the sweep, whichever fault the point injects.
func TestPointPanicIsAViolation(t *testing.T) {
	for _, mode := range []string{ModeStore, ModeNet} {
		r := &runner{cfg: Config{Seed: 7, Mode: mode, Batch: 1, Window: 2}, nodes: 1, quorum: 1, reg: obs.NewRegistry()}
		vs := r.point(5)
		if len(vs) != 1 || !strings.Contains(vs[0].Msg, "harness panic") {
			t.Fatalf("%s: point returned %v, want one harness-panic violation", mode, vs)
		}
		if want := (Violation{Seed: 7, Mode: mode, Point: 5, Msg: vs[0].Msg}); vs[0] != want {
			t.Errorf("%s: violation %+v does not name its (seed, mode, point)", mode, vs[0])
		}
	}
}
