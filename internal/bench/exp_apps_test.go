package bench

import (
	"math"
	"slices"
	"testing"

	"robustsample/internal/rng"
	"robustsample/internal/shard"
)

// maxServerKS returns the worst per-server KS distance of a k-server
// cluster.
func maxServerKS(c *shard.Engine, k int) float64 {
	worst := 0.0
	for i := 0; i < k; i++ {
		worst = max(worst, serverKS(c, i))
	}
	return worst
}

// TestUniformWorkloadRepresentative: uniform queries are not adversarial,
// so every server receives a Bernoulli(1/K) share and stays within the
// Theorem 1.2 prediction.
func TestUniformWorkloadRepresentative(t *testing.T) {
	const k, n = 4, 40000
	predicted := predictedRoutingEps(k, n, 20*math.Ln2, 0.1)
	if ks := maxServerKS(routeUniform(k, n, 1<<20, rng.New(3)), k); ks > predicted {
		t.Fatalf("uniform workload KS %v exceeds theory %v", ks, predicted)
	}
}

// TestDriftWorkloadStillRepresentative: environmental drift is not
// adversarial either, so representativeness still holds per Theorem 1.2.
func TestDriftWorkloadStillRepresentative(t *testing.T) {
	const k, n = 4, 40000
	predicted := predictedRoutingEps(k, n, 20*math.Ln2, 0.1)
	if ks := maxServerKS(routeDrift(k, n, 1<<20, rng.New(4)), k); ks > predicted {
		t.Fatalf("drift workload KS %v exceeds theory %v", ks, predicted)
	}
}

// TestAdaptiveAttackBreaksTargetServer: over an unbounded universe the
// bisection client drives server 0's KS toward 1 - 1/K.
func TestAdaptiveAttackBreaksTargetServer(t *testing.T) {
	const k = 8
	ks := serverKS(routeAdaptiveAttack(k, 20000, rng.New(5)), 0)
	if want := 1 - 1/float64(k); ks < want-0.1 {
		t.Fatalf("attack achieved KS %v, expected ~%v", ks, want)
	}
}

// TestAdaptiveAttackSparesOtherServers: the attack sorts the stream so
// that server 0 holds exactly its smallest elements. The other servers
// split the remaining large elements at random, so each of them is off by
// only about the target's share 1/K.
func TestAdaptiveAttackSparesOtherServers(t *testing.T) {
	const k = 8
	c := routeAdaptiveAttack(k, 20000, rng.New(6))
	target := c.Substream(0)
	if len(target) == 0 {
		t.Fatal("target server received no queries")
	}
	targetMax := slices.Max(target)
	targetKS := serverKS(c, 0)
	share := float64(len(target)) / float64(len(c.Stream()))
	for i := 1; i < k; i++ {
		if sub := c.Substream(i); len(sub) > 0 && slices.Min(sub) <= targetMax {
			t.Fatalf("server %d holds %d, not above server 0's largest %d", i, slices.Min(sub), targetMax)
		}
		if ks := serverKS(c, i); ks > share+0.05 || ks >= targetKS {
			t.Fatalf("server %d KS %v, want ~%v and below the target's %v", i, ks, share, targetKS)
		}
	}
}

// TestBoundedAttackCappedByTheory: over a bounded universe the attack
// exhausts its precision, and Theorem 1.2 with p = 1/K caps the damage at
// the predicted eps.
func TestBoundedAttackCappedByTheory(t *testing.T) {
	const k, n = 4, 40000
	universe := int64(1 << 20)
	ks := serverKS(routeBoundedAdaptiveAttack(k, n, universe, rng.New(7)), 0)
	if predicted := predictedRoutingEps(k, n, math.Log(float64(universe)), 0.1); ks > predicted {
		t.Fatalf("bounded attack KS %v exceeds Theorem 1.2 cap %v", ks, predicted)
	}
}

// TestBoundedVsUnboundedGap is E12's headline: at the same (K, n)
// the unbounded-universe attack is far more damaging than the bounded one.
func TestBoundedVsUnboundedGap(t *testing.T) {
	const k, n = 4, 20000
	r := rng.New(8)
	unbounded := serverKS(routeAdaptiveAttack(k, n, r.Split()), 0)
	bounded := serverKS(routeBoundedAdaptiveAttack(k, n, 1<<16, r.Split()), 0)
	if unbounded < 2*bounded {
		t.Fatalf("expected a wide gap: unbounded %v vs bounded %v", unbounded, bounded)
	}
}

func TestPredictedEpsValidation(t *testing.T) {
	for _, f := range []func(){
		func() { predictedRoutingEps(1, 100, 1, 0.1) },
		func() { predictedRoutingEps(2, 0, 1, 0.1) },
		func() { predictedRoutingEps(2, 100, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// TestPredictedEpsScaling: more servers (a thinner per-server
// sample) weaken the guarantee; a longer stream strengthens it.
func TestPredictedEpsScaling(t *testing.T) {
	if predictedRoutingEps(4, 10000, 10, 0.1) >= predictedRoutingEps(16, 10000, 10, 0.1) {
		t.Fatal("eps should grow with K")
	}
	if predictedRoutingEps(4, 10000, 10, 0.1) <= predictedRoutingEps(4, 100000, 10, 0.1) {
		t.Fatal("eps should shrink with n")
	}
}
