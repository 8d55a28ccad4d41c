package rank

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Repository manages a directory of per-video indexes and answers queries
// over their union — the paper's multi-video setting (§4.2: videos are added
// or deleted "by manipulating the information in these tables", i.e. without
// re-ingesting anything else).
//
// Layout: one saved index per subdirectory (Save/Load format). The merged
// query view is built lazily and invalidated by Add/Remove.
type Repository struct {
	dir string

	mu      sync.Mutex
	names   []string // sorted member names
	members map[string]*Index
	merged  *Index // nil until built; reset on membership change
}

// OpenRepository opens (or initialises) a repository directory, loading
// every member index found in it.
func OpenRepository(dir string) (*Repository, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("rank: %w", err)
	}
	r := &Repository{dir: dir, members: map[string]*Index{}}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("rank: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		sub := filepath.Join(dir, e.Name())
		if !isIndexDir(sub) {
			continue // not an index directory
		}
		ix, err := Load(sub)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("rank: loading member %s: %w", e.Name(), err)
		}
		r.members[e.Name()] = ix
		r.names = append(r.names, e.Name())
	}
	sort.Strings(r.names)
	return r, nil
}

// Dir returns the repository directory.
func (r *Repository) Dir() string { return r.dir }

// Videos lists the member names, sorted.
func (r *Repository) Videos() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.names...)
}

// Add persists the index as a member and invalidates the merged view. The
// member name is the index name; adding an existing name fails (Remove it
// first).
func (r *Repository) Add(ix *Index) error {
	if ix.Name == "" {
		return fmt.Errorf("rank: index needs a name")
	}
	if filepath.Base(ix.Name) != ix.Name || ix.Name == "." || ix.Name == ".." {
		return fmt.Errorf("rank: index name %q is not a valid member name", ix.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.members[ix.Name]; exists {
		return fmt.Errorf("rank: member %q already present", ix.Name)
	}
	sub := filepath.Join(r.dir, ix.Name)
	if err := Save(sub, ix); err != nil {
		return err
	}
	loaded, err := Load(sub)
	if err != nil {
		return err
	}
	r.members[ix.Name] = loaded
	r.names = append(r.names, ix.Name)
	sort.Strings(r.names)
	r.merged = nil
	return nil
}

// Remove deletes a member (its files included) and invalidates the merged
// view.
func (r *Repository) Remove(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	ix, ok := r.members[name]
	if !ok {
		return fmt.Errorf("rank: no member %q", name)
	}
	_ = ix.Close()
	delete(r.members, name)
	for i, n := range r.names {
		if n == name {
			r.names = append(r.names[:i], r.names[i+1:]...)
			break
		}
	}
	r.merged = nil
	return os.RemoveAll(filepath.Join(r.dir, name))
}

// Has reports whether a member with that name is present.
func (r *Repository) Has(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.members[name]
	return ok
}

// MaxGeneration returns the highest committed generation number across the
// members — a monotone indicator of repository freshness, exported as the
// svqact_repo_generation metric.
func (r *Repository) MaxGeneration() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	max := 0
	for _, ix := range r.members {
		if ix.Generation > max {
			max = ix.Generation
		}
	}
	return max
}

// Member returns one member's index, or nil.
func (r *Repository) Member(name string) *Index {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.members[name]
}

// Merged returns the union index over the current members, building it on
// first use after a membership change.
func (r *Repository) Merged() (*Index, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.merged != nil {
		return r.merged, nil
	}
	if len(r.names) == 0 {
		return nil, fmt.Errorf("rank: repository %s is empty", r.dir)
	}
	members := make([]*Index, 0, len(r.names))
	for _, n := range r.names {
		members = append(members, r.members[n])
	}
	m, err := Merge(filepath.Base(r.dir), members)
	if err != nil {
		return nil, err
	}
	r.merged = m
	return m, nil
}

// Close releases every member's pack mapping.
func (r *Repository) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var first error
	for _, ix := range r.members {
		if err := ix.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
