package fleet

import "testing"

// TestHedgeBudgetBucket covers the token arithmetic: burst bounds the
// cold-start grants, accrual refills at rate, denials are counted, and
// the nil/unlimited budget never refuses.
func TestHedgeBudgetBucket(t *testing.T) {
	hb := NewHedgeBudget(0.5, 2)
	if !hb.TryStake() || !hb.TryStake() {
		t.Fatal("burst of 2 must grant 2 cold hedges")
	}
	if hb.TryStake() {
		t.Fatal("dry bucket granted a 3rd hedge")
	}
	hb.Accrue() // +0.5: still dry
	if hb.TryStake() {
		t.Fatal("half a token granted a hedge")
	}
	hb.Accrue() // +0.5: one whole token
	if !hb.TryStake() {
		t.Fatal("accrued token refused")
	}
	staked, denied := hb.Counts()
	if staked != 3 || denied != 2 {
		t.Fatalf("counts staked=%d denied=%d, want 3/2", staked, denied)
	}
	// Accrual never overfills past burst.
	for i := 0; i < 100; i++ {
		hb.Accrue()
	}
	grants := 0
	for hb.TryStake() {
		grants++
	}
	if grants != 2 {
		t.Fatalf("overfilled bucket granted %d, want the burst cap 2", grants)
	}

	var unlimited *HedgeBudget
	unlimited.Accrue()
	if !unlimited.TryStake() {
		t.Fatal("nil budget must always grant")
	}
	free := NewHedgeBudget(0, 5)
	for i := 0; i < 50; i++ {
		if !free.TryStake() {
			t.Fatal("rate<=0 budget must be unlimited")
		}
	}
	if s, d := free.Counts(); s != 0 || d != 0 {
		t.Fatalf("unlimited budget keeps no accounts, got %d/%d", s, d)
	}
}
