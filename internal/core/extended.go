package core

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"svqact/internal/detect"
	"svqact/internal/plan"
)

// The paper's footnotes 2-4 sketch how the engine generalises beyond "one
// action plus object conjunction": relationship predicates become binary
// per-frame outputs derived from the detections (footnote 2), multiple
// actions get per-clip indicators combined by conjunction (footnote 3), and
// disjunctive queries are transformed to conjunctive normal form with one
// indicator per clause per clip (footnote 4). This file implements that
// extended model: a CNF of atoms, where every atom carries its own
// scan-statistics indicator machinery and clauses OR the atom indicators.
// It is the query model of the engine's one clip loop (Run.Step); a basic
// Query is the special case FromQuery spells out.

// Atom is one primitive predicate of an extended query.
type Atom struct {
	Kind PredicateKind
	// Name is the object type, the action type, or the relation name.
	Name string
	// Args holds the two operand object types for relation atoms.
	Args []string
}

// ObjectAtom builds an object-presence atom.
func ObjectAtom(typ string) Atom { return Atom{Kind: ObjectPredicate, Name: typ} }

// ActionAtom builds an action-occurrence atom.
func ActionAtom(act string) Atom { return Atom{Kind: ActionPredicate, Name: act} }

// RelationAtom builds a spatial-relationship atom between two object types.
func RelationAtom(rel detect.Relation, a, b string) Atom {
	return Atom{Kind: RelationPredicate, Name: string(rel), Args: []string{a, b}}
}

// Validate reports whether the atom is well-formed.
func (a Atom) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("core: atom with empty name")
	}
	switch a.Kind {
	case ObjectPredicate, ActionPredicate:
		if len(a.Args) != 0 {
			return fmt.Errorf("core: %s atom %q takes no arguments", a.Kind.label(), a.Name)
		}
	case RelationPredicate:
		if !detect.ValidRelation(detect.Relation(a.Name)) {
			return fmt.Errorf("core: unknown relation %q", a.Name)
		}
		if len(a.Args) != 2 || a.Args[0] == "" || a.Args[1] == "" {
			return fmt.Errorf("core: relation %q needs two object operands", a.Name)
		}
		if a.Args[0] == a.Args[1] {
			return fmt.Errorf("core: relation %q needs two distinct object types", a.Name)
		}
	default:
		return fmt.Errorf("core: unknown atom kind %d", a.Kind)
	}
	return nil
}

func (k PredicateKind) label() string {
	switch k {
	case ObjectPredicate:
		return "object"
	case ActionPredicate:
		return "action"
	case RelationPredicate:
		return "relation"
	}
	return "unknown"
}

// String renders the atom.
func (a Atom) String() string {
	if a.Kind == RelationPredicate {
		return fmt.Sprintf("%s(%s,%s)", a.Name, a.Args[0], a.Args[1])
	}
	return a.Name
}

// equal reports whether two atoms are the same predicate (two clauses
// mentioning the same atom share one indicator).
func (a Atom) equal(b Atom) bool {
	return a.Kind == b.Kind && a.Name == b.Name && slices.Equal(a.Args, b.Args)
}

// Clause is a disjunction of atoms: it holds on a clip when any of its
// atoms' indicators is positive.
type Clause struct {
	Atoms []Atom
}

// String renders the clause.
func (c Clause) String() string {
	parts := make([]string, len(c.Atoms))
	for i, a := range c.Atoms {
		parts[i] = a.String()
	}
	if len(parts) == 1 {
		return parts[0]
	}
	return "(" + strings.Join(parts, " OR ") + ")"
}

// CNF is an extended query: a conjunction of clauses.
type CNF struct {
	Clauses []Clause
}

// String renders the query.
func (q CNF) String() string {
	parts := make([]string, len(q.Clauses))
	for i, c := range q.Clauses {
		parts[i] = c.String()
	}
	return strings.Join(parts, " AND ")
}

// Validate reports whether the query is well-formed: non-empty clauses of
// valid atoms, with at least one action atom somewhere (an action query
// without an action is a plain object query, outside this engine's scope).
func (q CNF) Validate() error {
	if len(q.Clauses) == 0 {
		return fmt.Errorf("core: empty query")
	}
	hasAction := false
	for _, c := range q.Clauses {
		if len(c.Atoms) == 0 {
			return fmt.Errorf("core: empty clause")
		}
		for _, a := range c.Atoms {
			if err := a.Validate(); err != nil {
				return err
			}
			if a.Kind == ActionPredicate {
				hasAction = true
			}
		}
	}
	if !hasAction {
		return fmt.Errorf("core: extended query needs at least one action atom")
	}
	return nil
}

// FromQuery lifts a basic query (object conjunction plus one action) into
// CNF form: one single-atom clause per predicate.
func FromQuery(q Query) CNF {
	var cnf CNF
	for _, o := range q.Objects {
		cnf.Clauses = append(cnf.Clauses, Clause{Atoms: []Atom{ObjectAtom(o)}})
	}
	cnf.Clauses = append(cnf.Clauses, Clause{Atoms: []Atom{ActionAtom(q.Action)}})
	return cnf
}

// RunCNF evaluates an extended query over the whole video — Run for a CNF.
// Every distinct atom gets the engine's per-clip indicator machinery (static
// critical values for SVAQ, adaptive for SVAQD) and one planner node; per
// clip, a clause holds when any of its atoms does and the query holds when
// every clause does. Planning, short-circuiting, the sampling schedule, the
// inference budget and the failure model are Run's (see Step).
func (e *Engine) RunCNF(ctx context.Context, v detect.TruthVideo, q CNF) (*Result, error) {
	return finish(e.newRunCNF(ctx, v, q, nil))
}

// newRunCNF is newRun for a CNF, bound one clause at a time: the binding
// RunCNF and RunAllCNF share.
func (e *Engine) newRunCNF(ctx context.Context, v detect.TruthVideo, q CNF, pl *plan.Planner) (*Run, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	mentions := 0
	for _, c := range q.Clauses {
		mentions += len(c.Atoms)
	}
	r, err := e.bind(ctx, v, mentions)
	if err != nil {
		return nil, err
	}
	r.cnf = q
	for _, c := range q.Clauses {
		if _, err := r.addClause(c.Atoms...); err != nil {
			r.release()
			return nil, err
		}
	}
	r.start(pl)
	return r, nil
}
