package attack

import (
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/p2p"
)

func trackedTrace(t *testing.T) *dataset.Trace {
	t.Helper()
	tr, err := testPop(t).RunTrace(dataset.TraceConfig{
		Duration: 24 * time.Hour, SampleEvery: 10 * time.Minute, Seed: 5,
		TrackSyncedByAS: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestFindBestMoment(t *testing.T) {
	tr := trackedTrace(t)
	m, err := FindBestMoment(tr, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.TopSyncedASes) != 5 {
		t.Fatalf("top ASes = %d", len(m.TopSyncedASes))
	}
	// The chosen sample truly minimizes the synced count.
	for _, s := range tr.Samples {
		if s.Buckets[0] < m.Synced {
			t.Fatalf("sample with fewer synced nodes exists: %d < %d", s.Buckets[0], m.Synced)
		}
	}
	// Rows are sorted and fractions filled.
	for i := 1; i < len(m.TopSyncedASes); i++ {
		if m.TopSyncedASes[i].Nodes > m.TopSyncedASes[i-1].Nodes {
			t.Error("top ASes not sorted")
		}
	}
	// Asked for every AS, it lists exactly those hosting a synced node at
	// the moment.
	all, err := FindBestMoment(tr, len(tr.ASNs))
	if err != nil {
		t.Fatal(err)
	}
	hosting := 0
	for _, c := range tr.Samples[all.SampleIndex].SyncedByAS {
		if c > 0 {
			hosting++
		}
	}
	if len(all.TopSyncedASes) != hosting {
		t.Errorf("listed %d ASes, %d host a synced node", len(all.TopSyncedASes), hosting)
	}
	for _, r := range all.TopSyncedASes {
		if r.Nodes == 0 {
			t.Errorf("AS%d listed with no synced node", r.ASN)
		}
	}
}

func TestFindBestMomentErrors(t *testing.T) {
	if _, err := FindBestMoment(&dataset.Trace{}, 5); err == nil {
		t.Error("empty trace accepted")
	}
	untracked, err := testPop(t).RunTrace(dataset.TraceConfig{
		Duration: time.Hour, SampleEvery: 10 * time.Minute, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FindBestMoment(untracked, 5); err == nil {
		t.Error("untracked trace accepted")
	}
}

func TestPlanSpatioTemporalByCapability(t *testing.T) {
	tr := trackedTrace(t)
	m, err := FindBestMoment(tr, 5)
	if err != nil {
		t.Fatal(err)
	}
	pop := testPop(t)

	routing, err := PlanSpatioTemporal(pop, m, CapabilityRouting, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(routing.SpatialASes) == 0 || routing.TemporalVictims != 0 {
		t.Errorf("routing plan = %+v", routing)
	}
	if routing.SpatialPrefixes == 0 {
		t.Error("routing plan has no prefix effort")
	}

	miningPlan, err := PlanSpatioTemporal(pop, m, CapabilityMining, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(miningPlan.SpatialASes) != 0 || miningPlan.TemporalVictims == 0 {
		t.Errorf("mining plan = %+v", miningPlan)
	}

	both, err := PlanSpatioTemporal(pop, m, CapabilityBoth, 5)
	if err != nil {
		t.Fatal(err)
	}
	if both.Coverage <= routing.Coverage || both.Coverage <= miningPlan.Coverage {
		t.Errorf("combined coverage %v should exceed single-capability plans (%v, %v)",
			both.Coverage, routing.Coverage, miningPlan.Coverage)
	}
	if both.Coverage > 1.000001 {
		t.Errorf("coverage %v exceeds 1", both.Coverage)
	}
}

func TestPlanSpatioTemporalValidation(t *testing.T) {
	pop := testPop(t)
	if _, err := PlanSpatioTemporal(pop, nil, CapabilityBoth, 5); err == nil {
		t.Error("nil moment accepted")
	}
	m := &Moment{}
	if _, err := PlanSpatioTemporal(pop, m, CapabilityInvalid, 5); err == nil {
		t.Error("invalid capability accepted")
	}
}

func TestCapabilityString(t *testing.T) {
	tests := []struct {
		c    Capability
		want string
	}{
		{CapabilityRouting, "routing"},
		{CapabilityMining, "mining"},
		{CapabilityBoth, "routing+mining"},
		{CapabilityInvalid, "Capability(0)"},
	}
	for _, tt := range tests {
		if got := tt.c.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestExecuteSpatioTemporal(t *testing.T) {
	sim := warmSim(t, 90, 41)
	candidates := FindVictims(sim, 0, 0)
	if len(candidates) < 30 {
		t.Fatal("not enough candidates")
	}
	spatial := candidates[:10]
	temporal := candidates[10:22]
	cfg := TemporalConfig{AttackerShare: 0.30, HoldFor: 8 * time.Hour, HealFor: 4 * time.Hour}
	res, err := ExecuteSpatioTemporal(sim, cfg, spatial, temporal)
	if err != nil {
		t.Fatal(err)
	}
	if res.Temporal == nil {
		t.Fatal("missing temporal result")
	}
	// Spatially blackholed nodes missed the hold's blocks.
	if res.SpatialIsolated < len(spatial)*8/10 {
		t.Errorf("spatially isolated = %d of %d", res.SpatialIsolated, len(spatial))
	}
	if res.Temporal.CapturedAtRelease < len(temporal)/2 {
		t.Errorf("temporal capture = %d of %d", res.Temporal.CapturedAtRelease, len(temporal))
	}
	// After the heal window the spatial victims caught back up.
	ref := sim.Network.RefHeight()
	behind := 0
	for _, id := range spatial {
		if sim.Network.Nodes[id].BlocksBehind(ref) > 2 {
			behind++
		}
	}
	if behind > len(spatial)/2 {
		t.Errorf("%d of %d spatial victims still far behind after heal", behind, len(spatial))
	}
}

func TestExecuteSpatioTemporalValidation(t *testing.T) {
	sim := warmSim(t, 40, 3)
	cfg := TemporalConfig{AttackerShare: 0.3, HoldFor: time.Hour, HealFor: time.Hour}
	if _, err := ExecuteSpatioTemporal(sim, cfg, []p2p.NodeID{1}, nil); err == nil {
		t.Error("empty temporal set accepted")
	}
	if _, err := ExecuteSpatioTemporal(sim, cfg, []p2p.NodeID{1}, []p2p.NodeID{1}); err == nil {
		t.Error("overlapping sets accepted")
	}
}
