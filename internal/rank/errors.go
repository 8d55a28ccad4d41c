package rank

import "fmt"

// NotIngestedError reports a query predicate type absent from the index's
// vocabulary. A monolithic index treats it as a client error (the predicate
// is a typo — nothing was ever ingested under that name); a shard holding a
// partial vocabulary treats it as "no candidates here" and answers empty,
// since other shards of the same repository may hold the type. That is
// right for a conjunct (RVAQ) and for a whole OR-group; a missing atom beside
// an ingested one in its OR-group drops out of the group instead
// (RVAQCNFShard).
type NotIngestedError struct {
	Kind string // "action", "object" or "atom"
	Name string
}

func (e *NotIngestedError) Error() string {
	if e.Kind == "atom" {
		return fmt.Sprintf("rank: atom %s not ingested", e.Name)
	}
	return fmt.Sprintf("rank: %s %q not ingested", e.Kind, e.Name)
}
