package core

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"svqact/internal/detect"
	"svqact/internal/synth"
)

// The goldens under testdata/ were captured at the commit *before* Run,
// RunCNF and EvaluateTypes collapsed into one clip loop (three loops then),
// and the single loop must reproduce them byte for byte. Regenerate only
// when a result is meant to move: go test ./internal/core -run Golden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite internal/core/testdata/*.golden from the current code")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			w := "<eof>"
			if i < len(wl) {
				w = wl[i]
			}
			t.Fatalf("%s drifted at line %d:\n got %s\nwant %s", name, i+1, gl[i], w)
		}
	}
	t.Fatalf("%s drifted: got %d lines, want %d", name, len(gl), len(wl))
}

type goldenEngine struct {
	name string
	mk   func(detect.Models, Config) (*Engine, error)
}

var goldenEngines = []goldenEngine{{"SVAQ", NewSVAQ}, {"SVAQD", NewSVAQD}}

type goldenModels struct {
	name string
	mk   func(int64) detect.Models
}

var goldenModelSets = []goldenModels{{"accurate", noisyModels}, {"cascade", cascadeModels}}

// renderPredicates prints the per-predicate diagnostics a golden pins; full
// adds the order-dependent parts (positive clips, evaluation counts).
func renderPredicates(sb *strings.Builder, preds []PredicateStats, full bool) {
	for _, ps := range preds {
		fmt.Fprintf(sb, "  %s kind=%d k=%d p=%v", ps.Name, ps.Kind, ps.Critical, ps.Background)
		if full {
			fmt.Fprintf(sb, " evaluated=%d clips=%v", ps.EvaluatedClips, ps.Clips)
		}
		sb.WriteByte('\n')
	}
}

func renderResult(sb *strings.Builder, res *Result) {
	fmt.Fprintf(sb, "  clips=%d processed=%d cost=%v budget_skipped=%d\n", res.NumClips, res.Processed, res.InferenceCost, res.BudgetSkipped)
	fmt.Fprintf(sb, "  sequences=%v\n  flagged=%v\n", res.Sequences, res.Flagged)
	renderPredicates(sb, res.Predicates, true)
	rep, err := json.Marshal(res.Plan)
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(sb, "  plan=%s\n", rep)
}

// TestGoldenRun pins Run over (seed, query) pairs × {SVAQ, SVAQD} ×
// {accurate, cascade}: sequences, flagged set, per-predicate diagnostics and
// the serialised plan report (what EXPLAIN renders and /query returns).
func TestGoldenRun(t *testing.T) {
	three, err := testVideoThreeObjects(31, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		v    *synth.Video
		q    Query
	}{
		{"two-objects", testVideo(t, 21, 20_000), Query{Objects: []string{"car", "human"}, Action: "jumping"}},
		{"two-objects-short", testVideo(t, 7, 4000), Query{Objects: []string{"human", "car"}, Action: "jumping"}},
		{"one-object", testVideo(t, 22, 20_000), Query{Objects: []string{"human"}, Action: "jumping"}},
		{"objectless", testVideo(t, 5, 12_000), Query{Action: "jumping"}},
		{"three-objects", three, Query{Objects: []string{"car", "human", "dog"}, Action: "jumping"}},
		{"ext-human-jumping", extTestVideo(t, 1), Query{Objects: []string{"human"}, Action: "jumping"}},
		{"ext-car-dog-dancing", extTestVideo(t, 3), Query{Objects: []string{"car", "dog"}, Action: "dancing"}},
	}
	var sb strings.Builder
	for _, c := range cases {
		for _, eng := range goldenEngines {
			for _, ms := range goldenModelSets {
				e, err := eng.mk(ms.mk(7), DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				res, err := e.Run(context.Background(), c.v, c.q)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&sb, "%s %s %s %s\n", c.name, eng.name, ms.name, c.q)
				renderResult(&sb, res)
			}
		}
	}
	// The configuration switches that change how the loop walks a clip.
	v, q := cases[0].v, cases[0].q
	for _, variant := range []struct {
		name string
		set  func(*Config)
	}{
		{"no-short-circuit", func(c *Config) { c.NoShortCircuit = true }},
		{"action-first", func(c *Config) { c.ActionFirst = true }},
		{"declared-order", func(c *Config) { c.DeclaredOrder = true }},
		{"budget-500ms", func(c *Config) { c.InferenceBudget = 500 * time.Millisecond }},
	} {
		for _, ms := range goldenModelSets {
			cfg := DefaultConfig()
			variant.set(&cfg)
			e, err := NewSVAQD(ms.mk(7), cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run(context.Background(), v, q)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&sb, "%s SVAQD %s %s\n", variant.name, ms.name, q)
			renderResult(&sb, res)
		}
	}
	checkGolden(t, "run.golden", sb.String())
}

// TestGoldenEvaluateTypes pins the ingestion-mode per-type sequences.
func TestGoldenEvaluateTypes(t *testing.T) {
	three, err := testVideoThreeObjects(31, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name             string
		v                *synth.Video
		objects, actions []string
	}{
		{"two-objects", testVideo(t, 21, 20_000), []string{"car", "human"}, []string{"jumping"}},
		{"three-objects", three, []string{"dog", "car", "human"}, []string{"jumping"}},
		{"ext", extTestVideo(t, 1), []string{"human", "car", "dog"}, []string{"jumping", "dancing"}},
		{"ext-objects-only", extTestVideo(t, 3), []string{"car"}, nil},
	}
	var sb strings.Builder
	for _, c := range cases {
		for _, eng := range goldenEngines {
			for _, ms := range goldenModelSets {
				e, err := eng.mk(ms.mk(8), DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				objSeqs, actSeqs, err := e.EvaluateTypes(context.Background(), c.v, c.objects, c.actions)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&sb, "%s %s %s\n", c.name, eng.name, ms.name)
				for _, o := range c.objects {
					fmt.Fprintf(&sb, "  object %s %v\n", o, objSeqs[o])
				}
				for _, a := range c.actions {
					fmt.Fprintf(&sb, "  action %s %v\n", a, actSeqs[a])
				}
			}
		}
	}
	checkGolden(t, "evaluate_types.golden", sb.String())
}

// goldenCNFs are the extended shapes of footnotes 2-4: an OR-group, an atom
// shared by two clauses, a relation, and two actions.
func goldenCNFs() []CNF {
	return []CNF{
		{Clauses: []Clause{
			{Atoms: []Atom{ActionAtom("jumping"), ActionAtom("dancing")}},
			{Atoms: []Atom{ObjectAtom("human")}},
		}},
		{Clauses: []Clause{
			{Atoms: []Atom{ActionAtom("jumping"), ObjectAtom("car")}},
			{Atoms: []Atom{ObjectAtom("car"), ObjectAtom("dog")}},
		}},
		{Clauses: []Clause{
			{Atoms: []Atom{ActionAtom("jumping")}},
			{Atoms: []Atom{RelationAtom(detect.Near, "human", "car")}},
		}},
		{Clauses: []Clause{
			{Atoms: []Atom{ActionAtom("jumping")}},
			{Atoms: []Atom{ActionAtom("dancing")}},
			{Atoms: []Atom{ObjectAtom("human"), ObjectAtom("dog")}},
		}},
	}
}

// TestGoldenRunCNF pins RunCNF where the old every-clip loop and the
// sampled loop must agree: under NoShortCircuit every clip is sampled and
// every atom runs, so the whole result is pinned; under SVAQ with
// short-circuiting on nothing is learnt, so sequences, flagged set and
// critical values are (per-atom clips and evaluation counts are not — a
// short-circuited atom records a negative indicator).
func TestGoldenRunCNF(t *testing.T) {
	var sb strings.Builder
	for seed := int64(1); seed <= 2; seed++ {
		v := extTestVideo(t, seed)
		for _, q := range goldenCNFs() {
			for _, eng := range goldenEngines {
				for _, ms := range goldenModelSets {
					cfg := DefaultConfig()
					cfg.NoShortCircuit = true
					e, err := eng.mk(ms.mk(7), cfg)
					if err != nil {
						t.Fatal(err)
					}
					res, err := e.RunCNF(context.Background(), v, q)
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(&sb, "seed=%d no-short-circuit %s %s %s\n", seed, eng.name, ms.name, q)
					fmt.Fprintf(&sb, "  clips=%d\n  sequences=%v\n  flagged=%v\n", res.NumClips, res.Sequences, res.Flagged)
					renderPredicates(&sb, res.Predicates, true)
				}
			}
			for _, ms := range goldenModelSets {
				e, err := NewSVAQ(ms.mk(7), DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				res, err := e.RunCNF(context.Background(), v, q)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&sb, "seed=%d default SVAQ %s %s\n", seed, ms.name, q)
				fmt.Fprintf(&sb, "  clips=%d\n  sequences=%v\n  flagged=%v\n", res.NumClips, res.Sequences, res.Flagged)
				renderPredicates(&sb, res.Predicates, false)
			}
		}
	}
	checkGolden(t, "run_cnf.golden", sb.String())
}
