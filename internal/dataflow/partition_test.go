package dataflow

import (
	"math/rand"
	"testing"

	"trident/internal/models"
)

// TestPartitionBalancedWithinTwiceIdeal is the satellite property: on every
// paper model descriptor, at every stage count, the balanced partition's
// heaviest stage stays within 2× of the ideal ⌈total/K⌉ bound (taking the
// heaviest single layer as the floor — a layer is never split). The exact DP
// guarantees this whenever every boundary is legal: any partition whose max
// stage exceeded ideal+maxItem could be improved by moving the straddling
// item, so the optimum cannot.
func TestPartitionBalancedWithinTwiceIdeal(t *testing.T) {
	geo := Geometry{PEs: 8, Rows: 64, Cols: 64}
	for _, m := range models.All() {
		mapping, err := Map(m, geo)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		costs := make([]int64, len(mapping.Layers))
		legal := make([]bool, len(mapping.Layers))
		for i, l := range mapping.Layers {
			costs[i] = l.Tiles * l.Pixels
			legal[i] = true
		}
		for _, k := range []int{2, 3, 4, 8} {
			cuts, err := PartitionBalanced(costs, legal, k)
			if err != nil {
				t.Fatalf("%s K=%d: %v", m.Name, k, err)
			}
			if len(cuts) > k-1 {
				t.Fatalf("%s K=%d: %d cuts exceed K−1", m.Name, k, len(cuts))
			}
			for i := 1; i < len(cuts); i++ {
				if cuts[i] <= cuts[i-1] {
					t.Fatalf("%s K=%d: cuts %v not strictly increasing", m.Name, k, cuts)
				}
			}
			max := MaxStageCost(costs, cuts)
			ideal := IdealStageCost(costs, k)
			if max > 2*ideal {
				t.Errorf("%s K=%d: max stage cost %d exceeds 2× ideal %d (cuts %v)",
					m.Name, k, max, ideal, cuts)
			}
		}
	}
}

// TestPartitionBalancedRespectsLegalMask: the DP must never cut at an
// illegal boundary, even when that forces a worse balance or fewer stages.
func TestPartitionBalancedRespectsLegalMask(t *testing.T) {
	costs := []int64{5, 5, 5, 5, 5, 5}
	legal := []bool{false, false, true, false, false, false}
	cuts, err := PartitionBalanced(costs, legal, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) != 1 || cuts[0] != 2 {
		t.Fatalf("cuts = %v, want the single legal boundary [2]", cuts)
	}

	// No legal boundary at all degrades to one stage, not an error.
	none := make([]bool, len(costs))
	cuts, err = PartitionBalanced(costs, none, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) != 0 {
		t.Fatalf("cuts = %v, want none", cuts)
	}
}

// TestPartitionBalancedExactBalance: a uniform workload splits perfectly.
func TestPartitionBalancedExactBalance(t *testing.T) {
	costs := []int64{3, 3, 3, 3, 3, 3, 3, 3}
	legal := []bool{true, true, true, true, true, true, true, true}
	cuts, err := PartitionBalanced(costs, legal, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := MaxStageCost(costs, cuts), IdealStageCost(costs, 4); got != want {
		t.Fatalf("max stage cost %d, want ideal %d (cuts %v)", got, want, cuts)
	}
}

// TestPartitionBalancedRejectsBadInput covers the error paths.
func TestPartitionBalancedRejectsBadInput(t *testing.T) {
	if _, err := PartitionBalanced(nil, nil, 2); err == nil {
		t.Fatal("empty cost list accepted")
	}
	if _, err := PartitionBalanced([]int64{1, 2}, []bool{true}, 2); err == nil {
		t.Fatal("mismatched legal mask accepted")
	}
	if _, err := PartitionBalanced([]int64{1, 2}, []bool{true, true}, 0); err == nil {
		t.Fatal("zero stage count accepted")
	}
	if _, err := PartitionBalanced([]int64{1, -2}, []bool{true, true}, 2); err == nil {
		t.Fatal("negative cost accepted")
	}
}

// bruteForceMinMax enumerates every legal cut set of at most k−1 interior
// boundaries (a boundary after item j < n−1 with legal[j]) and returns the
// smallest achievable maximum stage cost.
func bruteForceMinMax(costs []int64, legal []bool, k int) int64 {
	n := len(costs)
	best := int64(-1)
	for mask := 0; mask < 1<<(n-1); mask++ {
		var cuts []int
		ok := true
		for j := 0; j < n-1; j++ {
			if mask&(1<<j) == 0 {
				continue
			}
			if !legal[j] {
				ok = false
				break
			}
			cuts = append(cuts, j)
		}
		if !ok || len(cuts) > k-1 {
			continue
		}
		if c := MaxStageCost(costs, cuts); best < 0 || c < best {
			best = c
		}
	}
	return best
}

// TestPartitionBalancedExactAgainstBruteForce backs the "exact" claim: for
// every n ≤ 12, over seeded random costs (zeros and heavy outliers
// included) and random legal masks, at every stage count 1..n+1, the DP's
// cuts are legal, strictly increasing, at most K−1, and their maximum stage
// cost equals the optimum found by enumerating every legal cut set.
func TestPartitionBalancedExactAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for n := 1; n <= 12; n++ {
		for trial := 0; trial < 25; trial++ {
			costs := make([]int64, n)
			legal := make([]bool, n)
			density := rng.Float64()
			for i := range costs {
				switch r := rng.Float64(); {
				case r < 0.1:
					costs[i] = 0
				case r < 0.2:
					costs[i] = 50 + rng.Int63n(200)
				default:
					costs[i] = 1 + rng.Int63n(20)
				}
				legal[i] = rng.Float64() < density
			}
			for k := 1; k <= n+1; k++ {
				cuts, err := PartitionBalanced(costs, legal, k)
				if err != nil {
					t.Fatalf("n=%d costs=%v legal=%v K=%d: %v", n, costs, legal, k, err)
				}
				if len(cuts) > k-1 {
					t.Fatalf("n=%d K=%d: %d cuts exceed K−1", n, k, len(cuts))
				}
				for i, c := range cuts {
					if c < 0 || c >= n-1 || !legal[c] || (i > 0 && c <= cuts[i-1]) {
						t.Fatalf("n=%d costs=%v legal=%v K=%d: cuts %v not strictly increasing legal interior boundaries",
							n, costs, legal, k, cuts)
					}
				}
				got, want := MaxStageCost(costs, cuts), bruteForceMinMax(costs, legal, k)
				if got != want {
					t.Fatalf("n=%d costs=%v legal=%v K=%d: DP max stage %d (cuts %v), optimum %d",
						n, costs, legal, k, got, cuts, want)
				}
			}
		}
	}
}
