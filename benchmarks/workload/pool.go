package workload

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strings"

	"svqact/internal/synth"
)

// Statement is one distinct request of a workload's pool.
type Statement struct {
	// Class names the traffic class the statement belongs to (the rows of
	// the mix in README.md).
	Class string
	SQL   string
	Algo  string
	// Body is the JSON request body, encoded once.
	Body []byte
}

// class is one traffic class: slots of every deck of DeckLen requests, and
// the statements that take turns filling them.
type class struct {
	name  string
	slots int
	stmts []int // indexes into Pool.Statements
}

// Pool is a workload's statement pool with its mix.
type Pool struct {
	Statements []Statement
	classes    []class
}

func (p *Pool) add(cls, sql, algo string) {
	body, err := json.Marshal(struct {
		SQL  string `json:"sql"`
		Algo string `json:"algo,omitempty"`
	}{sql, algo})
	if err != nil {
		panic(err) // two strings always encode
	}
	for i := range p.classes {
		if p.classes[i].name == cls {
			p.classes[i].stmts = append(p.classes[i].stmts, len(p.Statements))
		}
	}
	p.Statements = append(p.Statements, Statement{Class: cls, SQL: sql, Algo: algo, Body: body})
}

// DeckLen is how many requests make one deck; the classes' slots of every
// pool add up to it. Traffic is dealt in decks: each
// deck holds every class in its exact share of the mix and takes the class's
// statements round-robin, and the seed only shuffles the order inside the
// deck. Independent draws would give every run a different multiset of
// statements, and since a movie stream costs twenty times a short set, that
// sampling noise would swamp the differences the benchmark exists to show.
const DeckLen = 20

// Sequence returns the statement index of each of n requests of one phase,
// dealt in decks shuffled by seed: the same seed gives the same traffic, and
// any two seeds give the same statements in a different order.
func (p *Pool) Sequence(seed uint64, n int) []int {
	r := rand.New(rand.NewPCG(seed, 0x9001))
	cursor := make([]int, len(p.classes))
	out := make([]int, 0, n+DeckLen)
	for len(out) < n {
		start := len(out)
		for ci, c := range p.classes {
			for k := c.slots; k > 0; k-- {
				out = append(out, c.stmts[cursor[ci]%len(c.stmts)])
				cursor[ci]++
			}
		}
		deck := out[start:]
		r.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	}
	return out[:n]
}

// Mix returns each class's slots per deck and its number of statements.
func (p *Pool) Mix() []ClassShare {
	out := make([]ClassShare, len(p.classes))
	for i, c := range p.classes {
		out[i] = ClassShare{Class: c.name, Slots: c.slots, Statements: len(c.stmts)}
	}
	return out
}

// ClassShare is one row of a pool's mix: Slots of every DeckLen requests.
type ClassShare struct {
	Class      string
	Slots      int
	Statements int
}

func quoteList(names []string) string {
	q := make([]string, len(names))
	for i, n := range names {
		q[i] = "'" + n + "'"
	}
	return strings.Join(q, ",")
}

func onlineSQL(source, where string) string {
	return "SELECT MERGE(clipID) AS s FROM (PROCESS " + source + " PRODUCE clipID, obj USING ObjectDetector, act USING ActionRecognizer) WHERE " + where
}

func conj(action string, objects ...string) string {
	w := "act='" + action + "'"
	if len(objects) > 0 {
		w += " AND obj.include(" + quoteList(objects) + ")"
	}
	return w
}

// objectSubsets returns the predicate sets the paper's Table 3 varies: no
// object, each queried object alone, the ubiquitous person, and pairs — one
// to three predicates counting the action.
func objectSubsets(objects []string) [][]string {
	out := [][]string{nil, {"person"}}
	for _, o := range objects {
		out = append(out, []string{o}, []string{o, "person"})
	}
	if len(objects) >= 2 {
		out = append(out, []string{objects[0], objects[1]})
	}
	return out
}

// OnlinePool builds the online workload's statements over the twelve
// YouTube sets and the four movies.
func OnlinePool() *Pool {
	p := &Pool{classes: []class{
		{name: "svaqd", slots: 13},
		{name: "svaq", slots: 3},
		{name: "cnf", slots: 3},
		{name: "movie", slots: 1},
	}}
	for _, q := range synth.YouTubeQueries() {
		for _, objs := range objectSubsets(q.Objects) {
			p.add("svaqd", onlineSQL(q.Name, conj(q.Action, objs...)), "")
		}
		p.add("svaq", onlineSQL(q.Name, conj(q.Action, q.Objects...)), "svaq")
		p.add("svaq", onlineSQL(q.Name, conj(q.Action)), "svaq")
		// OR groups: the action or its first object, with the person
		// always required; and either of two objects alongside the action.
		p.add("cnf", onlineSQL(q.Name, fmt.Sprintf("(act='%s' OR obj.include('%s')) AND obj.include('person')", q.Action, q.Objects[0])), "")
		p.add("cnf", onlineSQL(q.Name, fmt.Sprintf("act='%s' AND (obj.include('%s') OR obj.include('person'))", q.Action, q.Objects[0])), "")
	}
	for _, m := range synth.MovieQueries() {
		p.add("movie", onlineSQL(m.Name, conj(m.Action, m.Objects[0])), "")
		p.add("movie", onlineSQL(m.Name, conj(m.Action, "person")), "")
	}
	return p
}

// FleetPool builds the fleet workload's statements: basic conjunctions only
// (the batch endpoint evaluates one query over every video of a set).
func FleetPool() *Pool {
	p := &Pool{classes: []class{
		{name: "svaqd", slots: 16},
		{name: "svaq", slots: 4},
	}}
	for _, q := range synth.YouTubeQueries() {
		p.add("svaqd", onlineSQL(q.Name, conj(q.Action)), "")
		p.add("svaqd", onlineSQL(q.Name, conj(q.Action, q.Objects[0])), "")
		p.add("svaqd", onlineSQL(q.Name, conj(q.Action, q.Objects...)), "")
		p.add("svaqd", onlineSQL(q.Name, conj(q.Action, q.Objects[0], "person")), "")
		p.add("svaq", onlineSQL(q.Name, conj(q.Action, q.Objects[0])), "svaq")
	}
	return p
}

// RepoSource is the PROCESS source of repository-backed statements; a
// coordinator accepts only this name.
const RepoSource = "repo"

func rankedSQL(where string, k int) string {
	return fmt.Sprintf("SELECT MERGE(clipID) AS s, RANK(act, obj) FROM (PROCESS %s PRODUCE clipID, obj USING ObjectDetector, act USING ActionRecognizer) WHERE %s ORDER BY RANK(act, obj) LIMIT %d", RepoSource, where, k)
}

// rankedKs are the top-k depths of the ranked pool.
var rankedKs = []int{1, 5, 10, 25}

// RankedPool builds the statements of the ranked and sharded workloads over
// the repository of every YouTube video and the four movies. Selective
// statements pair an action with one of its own rare objects (tens of
// candidate sequences); broad ones pair it with the ubiquitous person, or
// ask for a background movie action, so thousands of table rows are in play.
// The shares put the median request well inside the selective class and the
// 95th percentile well inside the heavy ones: a quantile that sits on the
// boundary between a 2 ms class and a 15 ms class jumps with every reordering
// of the traffic.
func RankedPool() *Pool {
	p := &Pool{classes: []class{
		{name: "selective", slots: 14},
		{name: "broad", slots: 4},
		{name: "cnf", slots: 2},
	}}
	yt := synth.YouTubeQueries()
	for i, q := range append(yt, synth.MovieQueries()...) {
		k := rankedKs[i%len(rankedKs)]
		p.add("selective", rankedSQL(conj(q.Action, q.Objects[0]), k), "")
		p.add("selective", rankedSQL(conj(q.Action, q.Objects...), rankedKs[(i+1)%len(rankedKs)]), "")
		p.add("broad", rankedSQL(conj(q.Action, "person"), rankedKs[(i+2)%len(rankedKs)]), "")
	}
	// OR groups pair YouTube actions only. Their videos hash onto every
	// shard, so every shard has ingested both atoms: a shard that never
	// ingested one atom of an OR group answers "no candidates" for the
	// whole statement (correct for a conjunction, wrong for a disjunction),
	// and the benchmark sends only statements the system answers correctly.
	for i, q := range yt {
		next := yt[(i+1)%len(yt)]
		p.add("cnf", rankedSQL(fmt.Sprintf("(act='%s' OR act='%s') AND obj.include('person')", q.Action, next.Action), rankedKs[i%len(rankedKs)]), "")
	}
	for i, a := range []string{"talking", "walking", "driving", "fighting"} {
		p.add("broad", rankedSQL(conj(a, "person"), rankedKs[i%len(rankedKs)]), "")
		p.add("broad", rankedSQL(conj(a, "chair"), rankedKs[(i+1)%len(rankedKs)]), "")
	}
	return p
}

// PoolFor returns the statement pool of a workload.
func PoolFor(s Spec) *Pool {
	switch {
	case s.Ranked:
		return RankedPool()
	case s.Fleet:
		return FleetPool()
	}
	return OnlinePool()
}
