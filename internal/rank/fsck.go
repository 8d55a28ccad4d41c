package rank

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// FsckReport summarises the verification of one saved index directory.
type FsckReport struct {
	// Dir is the index directory that was checked.
	Dir string
	// Generation is the committed generation number.
	Generation int
	// NumClips is the size of the index's clip space.
	NumClips int
	// Objects and Actions count the verified type tables.
	Objects int
	Actions int
	// PackBytes is the size of the generation's table pack, every byte of
	// which belongs to one verified table.
	PackBytes int64
	// Warnings lists non-fatal findings: uncommitted generation
	// directories, stray temp files, and files inside the live generation
	// other than its pack and manifest. None of these can affect query
	// results (Load only reads what CURRENT commits), so they do not fail
	// the check — the next successful save garbage-collects them.
	Warnings []string
}

// Fsck verifies one saved index directory end to end: the CURRENT commit
// record, the manifest checksum and invariants, the tiling of the pack by
// the manifest's sections, and every table's magic, checksums, and sort
// order — exactly the checks Load performs — plus a scan for orphaned files
// that Load skips. Any integrity violation is returned as
// a *CorruptError.
func Fsck(dir string) (*FsckReport, error) {
	ix, err := Load(dir)
	if err != nil {
		return nil, err
	}
	defer ix.Close()
	rep := &FsckReport{
		Dir:        dir,
		Generation: ix.Generation,
		NumClips:   ix.NumClips,
		Objects:    len(ix.Objects),
		Actions:    len(ix.Actions),
		PackBytes:  ix.pack.Size(),
	}

	// The committed generation is sound; now look for debris around it.
	live := genName(ix.Generation)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("rank: %w", err)
	}
	for _, e := range entries {
		switch {
		case e.IsDir() && genNameRe.MatchString(e.Name()) && e.Name() != live:
			rep.Warnings = append(rep.Warnings, fmt.Sprintf("uncommitted generation %s (crash debris; next save removes it)", e.Name()))
		case !e.IsDir() && strings.HasSuffix(e.Name(), ".tmp"):
			rep.Warnings = append(rep.Warnings, fmt.Sprintf("stray temp file %s", e.Name()))
		}
	}
	// Flag files inside the live generation other than its pack and
	// manifest. (Pack bytes that no section covers never get this far: the
	// sections must tile the pack, so Load already failed on them.)
	if genEntries, derr := os.ReadDir(filepath.Join(dir, live)); derr == nil {
		for _, e := range genEntries {
			if e.Name() != packFile && e.Name() != manifestFile {
				rep.Warnings = append(rep.Warnings, fmt.Sprintf("unreferenced file %s in live generation %s", e.Name(), live))
			}
		}
	}
	return rep, nil
}

// FsckRepository verifies every member of a repository directory (each
// subdirectory holding a saved index) and returns their reports. Failures
// across members are joined into one error so a single corrupt member does
// not mask the others.
func FsckRepository(root string) ([]*FsckReport, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("rank: %w", err)
	}
	var reports []*FsckReport
	var errs []error
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		sub := filepath.Join(root, e.Name())
		if !isIndexDir(sub) {
			continue // foreign directory, not ours to judge
		}
		rep, err := Fsck(sub)
		if err != nil {
			errs = append(errs, fmt.Errorf("member %s: %w", e.Name(), err))
			continue
		}
		reports = append(reports, rep)
	}
	return reports, errors.Join(errs...)
}

// isIndexDir reports whether dir looks like a saved index: a CURRENT commit
// record, or a legacy top-level manifest.json (which Load then rejects with
// a descriptive CorruptError instead of being silently skipped).
func isIndexDir(dir string) bool {
	if _, err := os.Stat(filepath.Join(dir, currentFile)); err == nil {
		return true
	}
	if _, err := os.Stat(filepath.Join(dir, manifestFile)); err == nil {
		return true
	}
	return false
}
