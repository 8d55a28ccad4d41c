package cluster

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"svqact/internal/rank"
	"svqact/internal/store"
	"svqact/internal/video"
)

// The test world: a handful of hand-built member (video) indexes with
// deterministic pseudo-random scores, partitioned into shard indexes the
// same way SplitRepository would, plus the monolithic merge of everything —
// the single-process ground truth every scatter-gather answer must match.

// Chosen so the keyed-hash placement leaves no empty shard at n=2
// (vid-i | vid-a vid-b vid-c) or n=3 (vid-a | vid-b vid-c | vid-i).
var testMembers = []string{"vid-a", "vid-b", "vid-c", "vid-i"}

const rankedSQL = `SELECT MERGE(clipID) AS s, RANK(act, obj)
FROM (PROCESS repo PRODUCE clipID, obj USING ObjectDetector, act USING ActionRecognizer)
WHERE act='jumping' AND obj.include('car')
ORDER BY RANK(act, obj) LIMIT 3`

func rankedSQLK(k int) string {
	return fmt.Sprintf(`SELECT MERGE(clipID) AS s, RANK(act, obj)
FROM (PROCESS repo PRODUCE clipID, obj USING ObjectDetector, act USING ActionRecognizer)
WHERE act='jumping' AND obj.include('car')
ORDER BY RANK(act, obj) LIMIT %d`, k)
}

// memberIndex hand-builds one member's index: candidate sequences at
// seed-dependent positions, scores deterministic per (name, seed).
func memberIndex(t testing.TB, name string, seed int64) *rank.Index {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	const numClips = 40
	ix := &rank.Index{
		Name:     name,
		NumClips: numClips,
		Objects:  map[string]*rank.TypeIndex{},
		Actions:  map[string]*rank.TypeIndex{},
	}
	var seqs []video.Interval
	pos := 1 + int(seed%3)
	for _, l := range []int{3, 4, 2, 5} {
		seqs = append(seqs, video.Interval{Start: pos, End: pos + l - 1})
		pos += l + 2
	}
	mkType := func(typ string) *rank.TypeIndex {
		var entries []store.Entry
		for c := 0; c < numClips; c++ {
			inSeq := false
			for _, s := range seqs {
				if s.Contains(c) {
					inSeq = true
					break
				}
			}
			if inSeq || r.Float64() < 0.4 {
				entries = append(entries, store.Entry{Clip: c, Score: 0.1 + 10*r.Float64()})
			}
		}
		tbl, err := store.NewMemTable(typ, entries)
		if err != nil {
			t.Fatal(err)
		}
		return &rank.TypeIndex{Table: tbl, Seqs: video.NewIntervalSet(seqs...)}
	}
	ix.Objects["car"] = mkType("car")
	ix.Actions["jumping"] = mkType("jumping")
	return ix
}

// buildWorld returns the members' indexes partitioned into n shard
// indexes (hash placement, same as SplitRepository) plus the monolith.
func buildWorld(t testing.TB, n int) (shardIxs []*rank.Index, mono *rank.Index) {
	t.Helper()
	return buildWorldSeeded(t, n, 100)
}

// buildWorldSeeded is buildWorld with a controllable base seed: different
// bases give the same membership and shard placement but different scores
// — two generations of "the same" repository, for rollout tests.
func buildWorldSeeded(t testing.TB, n int, base int64) (shardIxs []*rank.Index, mono *rank.Index) {
	t.Helper()
	byName := map[string]*rank.Index{}
	var all []*rank.Index
	for i, m := range testMembers {
		ix := memberIndex(t, m, base+int64(i*17))
		byName[m] = ix
		all = append(all, ix)
	}
	groups := PartitionMembers(testMembers, n)
	for i, g := range groups {
		var ixs []*rank.Index
		for _, m := range g {
			ixs = append(ixs, byName[m])
		}
		if len(ixs) == 0 {
			t.Fatalf("shard %d got no members; adjust testMembers", i)
		}
		merged, err := rank.Merge(fmt.Sprintf("shard%d", i), ixs)
		if err != nil {
			t.Fatal(err)
		}
		shardIxs = append(shardIxs, merged)
	}
	mono, err := rank.Merge("mono", all)
	if err != nil {
		t.Fatal(err)
	}
	return shardIxs, mono
}

// localShards wraps shard indexes as single-replica LocalBackend specs.
func localShards(shardIxs []*rank.Index) []ShardSpec {
	var specs []ShardSpec
	for i, ix := range shardIxs {
		name := fmt.Sprintf("s%d", i)
		specs = append(specs, ShardSpec{Name: name,
			Replicas: []Backend{NewLocalBackend(name+"-r0", 1, ix)}})
	}
	return specs
}

// monolithTopK answers sql over the monolith index — the single-process
// ground truth.
func monolithTopK(t *testing.T, mono *rank.Index, sql string) []RankedSeq {
	t.Helper()
	b := NewLocalBackend("mono", 1, mono)
	resp, err := b.Query(context.Background(), Request{SQL: sql})
	if err != nil {
		t.Fatalf("monolith query: %v", err)
	}
	return resp.Sequences
}

// restrict drops sequences not belonging to the given members.
func restrict(seqs []RankedSeq, members ...string) []RankedSeq {
	keep := map[string]bool{}
	for _, m := range members {
		keep[m] = true
	}
	var out []RankedSeq
	for _, s := range seqs {
		if keep[s.Video] {
			out = append(out, s)
		}
	}
	return out
}

func seqKey(s RankedSeq) string {
	return fmt.Sprintf("%s[%d-%d]", s.Video, s.StartClip, s.EndClip)
}

// assertSameSeqs compares ranked lists on (video, clips, score).
func assertSameSeqs(t *testing.T, got, want []RankedSeq) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d sequences, want %d\n got: %v\nwant: %v", len(got), len(want), keys(got), keys(want))
	}
	for i := range got {
		if seqKey(got[i]) != seqKey(want[i]) {
			t.Fatalf("rank %d: got %s, want %s\n got: %v\nwant: %v",
				i, seqKey(got[i]), seqKey(want[i]), keys(got), keys(want))
		}
		if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
			t.Fatalf("rank %d (%s): score %v, want %v", i, seqKey(got[i]), got[i].Score, want[i].Score)
		}
	}
}

func keys(seqs []RankedSeq) []string {
	var out []string
	for _, s := range seqs {
		out = append(out, seqKey(s))
	}
	return out
}

// stubBackend scripts arbitrary replica behaviour per call.
type stubBackend struct {
	name string
	fn   func(ctx context.Context, req Request) (*Response, error)
}

func (b *stubBackend) Name() string { return b.name }
func (b *stubBackend) Query(ctx context.Context, req Request) (*Response, error) {
	return b.fn(ctx, req)
}
func (b *stubBackend) Healthy(context.Context) error { return nil }

// fakeClock is an injectable breaker clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// fastConfig is a test Config with tight deterministic timing.
func fastConfig() Config {
	return Config{
		QueryTimeout:       5 * time.Second,
		ShardTimeout:       2 * time.Second,
		AttemptsPerReplica: 2,
		BaseBackoff:        time.Millisecond,
		MaxBackoff:         4 * time.Millisecond,
		Seed:               7,
		Breaker:            BreakerConfig{Threshold: 100, Cooloff: time.Minute},
	}
}
