package workload

import (
	"reflect"
	"sort"
	"testing"

	"svqact/internal/sqlq"
)

func TestEveryPoolStatementParsesToItsWorkloadsPlan(t *testing.T) {
	for _, spec := range Specs {
		pool := PoolFor(spec)
		if len(pool.Statements) == 0 {
			t.Fatalf("%s: empty pool", spec.Name)
		}
		for _, st := range pool.Statements {
			parsed, err := sqlq.Parse(st.SQL)
			if err != nil {
				t.Fatalf("%s: %s: %v", spec.Name, st.SQL, err)
			}
			plan, err := parsed.Plan()
			if err != nil {
				t.Fatalf("%s: %s: %v", spec.Name, st.SQL, err)
			}
			if plan.Online == spec.Ranked {
				t.Errorf("%s: %s plans online=%v", spec.Name, st.SQL, plan.Online)
			}
			if spec.Fleet && plan.Extended {
				t.Errorf("fleet statement is extended: %s", st.SQL)
			}
		}
		slots := 0
		for _, c := range pool.Mix() {
			slots += c.Slots
			if c.Statements == 0 || c.Slots == 0 {
				t.Errorf("%s: class %s has %d statements in %d slots", spec.Name, c.Class, c.Statements, c.Slots)
			}
		}
		if slots != DeckLen {
			t.Errorf("%s: the classes fill %d slots of a deck of %d", spec.Name, slots, DeckLen)
		}
	}
}

func TestSequenceIsSeededAndDealsTheSameStatementsForEverySeed(t *testing.T) {
	pool := OnlinePool()
	const n = 30 * DeckLen
	a, b, c := pool.Sequence(1, n), pool.Sequence(1, n), pool.Sequence(2, n)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different traffic")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds, same order")
	}
	sa, sc := append([]int(nil), a...), append([]int(nil), c...)
	sort.Ints(sa)
	sort.Ints(sc)
	if !reflect.DeepEqual(sa, sc) {
		t.Error("different seeds sent different statements, not only a different order")
	}
	// Every deck holds the mix exactly.
	classes := map[string]int{}
	for _, i := range a[:DeckLen] {
		classes[pool.Statements[i].Class]++
	}
	for _, m := range pool.Mix() {
		if got := classes[m.Class]; got != m.Slots {
			t.Errorf("first deck holds %d of class %s, want %d", got, m.Class, m.Slots)
		}
	}
}

func TestReplyHashSeesEverySequence(t *testing.T) {
	a, err := DecodeReply([]byte(`{"query_id":"x","elapsed_ms":3,"sequences":[{"start_clip":1,"end_clip":4,"score":2.5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	same, _ := DecodeReply([]byte(`{"query_id":"y","elapsed_ms":9,"sequences":[{"start_clip":1,"end_clip":4,"score":2.5}]}`))
	other, _ := DecodeReply([]byte(`{"sequences":[{"start_clip":1,"end_clip":5,"score":2.5}]}`))
	if a.Hash() != same.Hash() {
		t.Error("ids and timings change the hash")
	}
	if a.Hash() == other.Hash() {
		t.Error("a different sequence hashes equal")
	}
	bad, _ := DecodeReply([]byte(`{"sequences":[],"degraded":true}`))
	if bad.Healthy() == nil {
		t.Error("a degraded answer counts as healthy")
	}
}
