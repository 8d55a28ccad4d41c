package rank

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"svqact/internal/store"
	"svqact/internal/video"
)

// Disk layout of a saved repository index (manifest format 3, crash-safe):
//
//	dir/CURRENT              — commit pointer: "gen-NNNNNN crc32=XXXXXXXX\n"
//	dir/gen-NNNNNN/
//	    tables.pack          — every type's clip score table image (store
//	                           format SVQTBL2, unchanged), back to back:
//	                           object types in sorted order, then actions
//	    manifest.json        — name, clip space, video spans, and per type
//	                           its pack section {off, len} and sequences
//
// A generation is two files and one barrier. Every save builds a fresh
// numbered generation directory: the pack and the manifest are written
// straight under their final names and each fsynced (store.WriteFileSync),
// the generation directory is fsynced once, and only then does an atomic
// rewrite of CURRENT (store.WriteFileAtomic: temp + fsync + rename + sync of
// dir) commit the generation — five syncs, six when the save also had to
// create dir, whose entry in its parent is then synced too. Files inside the
// generation need no temp-and-rename of their own: nothing reads a
// generation that CURRENT does not name, so a half-written pack is as
// invisible as a half-written temp file would be. The rename that must be
// atomic is the one that publishes — CURRENT's.
//
// The CRC32-C of the manifest bytes is recorded inside CURRENT, so the commit
// pointer vouches for the manifest, the manifest's sections must tile the
// pack exactly, and every section carries the table format's own checksums.
// A crash at any step leaves CURRENT pointing at the previous complete
// generation; the half-built directory is an uncommitted orphan that the
// next successful save garbage-collects. Old generations are removed only
// after the new one commits — an open Index keeps serving a removed
// generation, because it owns one mapping of the pack (released by
// Index.Close) and a mapping outlives its unlinked file.
//
// Individual sequences are small and live in the manifest.

// CorruptError is re-exported from store: rank.Load and rank.Fsck report
// every integrity violation with this type.
type CorruptError = store.CorruptError

// IsCorrupt reports whether err is (or wraps) a *CorruptError.
func IsCorrupt(err error) bool { return store.IsCorrupt(err) }

const (
	currentFile  = "CURRENT"
	manifestFile = "manifest.json"
	packFile     = "tables.pack"
	// manifestFormat is the version stamped into every manifest; Load
	// rejects anything else. 1 was the un-checksummed flat layout, 2 one
	// file per table.
	manifestFormat = 3
)

var genNameRe = regexp.MustCompile(`^gen-(\d{6})$`)

func genName(n int) string { return fmt.Sprintf("gen-%06d", n) }

type manifest struct {
	Format   int            `json:"format"`
	Name     string         `json:"name"`
	NumClips int            `json:"num_clips"`
	Spans    []manifestSpan `json:"spans,omitempty"`
	Objects  []manifestType `json:"objects"`
	Actions  []manifestType `json:"actions"`
}

type manifestSpan struct {
	VideoID string `json:"video_id"`
	Start   int    `json:"start"`
	Clips   int    `json:"clips"`
}

// manifestType locates one type's table image inside the pack: Len bytes at
// offset Off.
type manifestType struct {
	Type string   `json:"type"`
	Off  int64    `json:"off"`
	Len  int64    `json:"len"`
	Seqs [][2]int `json:"seqs"`
}

// Save persists an index to dir as a new generation and atomically commits
// it, creating the directory if needed. The previous generation stays
// readable until the commit point and is garbage-collected after it.
func Save(dir string, ix *Index) error {
	return SaveFS(store.OS, dir, ix)
}

// SaveFS is Save against an injectable filesystem (crash tests drive it
// through a store.FlakyFS).
func SaveFS(fsys store.FS, dir string, ix *Index) error {
	// Encode first: an index that cannot be saved touches nothing on disk.
	m := manifest{Format: manifestFormat, Name: ix.Name, NumClips: ix.NumClips}
	for _, s := range ix.spans {
		m.Spans = append(m.Spans, manifestSpan{VideoID: s.videoID, Start: s.start, Clips: s.clips})
	}
	// Every table Ingest, Merge and Load build is an image (store.DiskTable):
	// the pack is those images copied back to back, never re-encoded.
	var pack []byte
	dump := func(types []string, src map[string]*TypeIndex) ([]manifestType, error) {
		var out []manifestType
		for _, typ := range types {
			ti := src[typ]
			tbl, ok := ti.Table.(*store.DiskTable)
			if !ok || tbl.Image() == nil {
				return nil, fmt.Errorf("rank: table of type %q is not an open table image", typ)
			}
			if tbl.Name() != typ {
				return nil, fmt.Errorf("rank: table of type %q is named %q", typ, tbl.Name())
			}
			off := len(pack)
			pack = append(pack, tbl.Image()...)
			mt := manifestType{Type: typ, Off: int64(off), Len: int64(len(pack) - off)}
			for _, iv := range ti.Seqs.Intervals() {
				mt.Seqs = append(mt.Seqs, [2]int{iv.Start, iv.End})
			}
			out = append(out, mt)
		}
		return out, nil
	}
	var err error
	if m.Objects, err = dump(ix.ObjectTypes(), ix.Objects); err != nil {
		return err
	}
	if m.Actions, err = dump(ix.ActionTypes(), ix.Actions); err != nil {
		return err
	}
	// Compact: indentation was two thirds of a manifest's bytes (every
	// sequence bound on a line of its own); `jq .` restores it for a reader.
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("rank: %w", err)
	}

	_, statErr := fsys.Stat(dir)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("rank: %w", err)
	}
	if statErr != nil {
		// The save created dir: make its entry in the parent durable, or a
		// power loss could drop the whole index after its commit.
		if err := fsys.SyncDir(filepath.Dir(dir)); err != nil {
			return fmt.Errorf("rank: %w", err)
		}
	}
	gen := maxGeneration(fsys, dir) + 1
	genDir := filepath.Join(dir, genName(gen))
	committed := false
	defer func() {
		// A failure before the commit point leaves a half-built
		// generation; discard it (best-effort — after a real crash the
		// next save's GC finishes the job). Once the CURRENT rewrite has
		// started the directory may already be live, so leave it alone.
		if !committed {
			_ = fsys.RemoveAll(genDir)
		}
	}()
	if err := fsys.MkdirAll(genDir, 0o755); err != nil {
		return fmt.Errorf("rank: %w", err)
	}
	if err := store.WriteFileSync(fsys, filepath.Join(genDir, packFile), pack); err != nil {
		return err
	}
	if err := store.WriteFileSync(fsys, filepath.Join(genDir, manifestFile), data); err != nil {
		return err
	}
	// The one barrier: both names durable before CURRENT can name them.
	if err := fsys.SyncDir(genDir); err != nil {
		return fmt.Errorf("rank: %w", err)
	}

	// Commit point: after this rename lands, Load sees the new generation.
	committed = true
	record := fmt.Sprintf("%s crc32=%08x\n", genName(gen), store.Checksum(data))
	if err := store.WriteFileAtomic(fsys, filepath.Join(dir, currentFile), []byte(record)); err != nil {
		return err
	}
	gcGenerations(fsys, dir, gen)
	return nil
}

// maxGeneration returns the highest generation number present in dir
// (committed or not), or 0.
func maxGeneration(fsys store.FS, dir string) int {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return 0
	}
	max := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if m := genNameRe.FindStringSubmatch(e.Name()); m != nil {
			if n, err := strconv.Atoi(m[1]); err == nil && n > max {
				max = n
			}
		}
	}
	return max
}

// gcGenerations removes every generation directory except the live one, plus
// stray temp files from interrupted writes. Best-effort: a failure here never
// fails the save that just committed.
func gcGenerations(fsys store.FS, dir string, live int) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if e.IsDir() {
			if genNameRe.MatchString(e.Name()) && e.Name() != genName(live) {
				_ = fsys.RemoveAll(filepath.Join(dir, e.Name()))
			}
			continue
		}
		if strings.HasSuffix(e.Name(), ".tmp") {
			_ = fsys.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// parseCurrent decodes a CURRENT record into its generation name and the
// manifest checksum it vouches for.
func parseCurrent(dir string, raw []byte) (gen string, crc uint32, err error) {
	line := strings.TrimSuffix(string(raw), "\n")
	fields := strings.Split(line, " ")
	bad := func(detail string) (string, uint32, error) {
		return "", 0, &CorruptError{Path: filepath.Join(dir, currentFile), Detail: detail}
	}
	if len(fields) != 2 || strings.Contains(line, "\n") {
		return bad(fmt.Sprintf("malformed commit record %q", line))
	}
	if !genNameRe.MatchString(fields[0]) {
		return bad(fmt.Sprintf("malformed generation name %q", fields[0]))
	}
	hexCRC, ok := strings.CutPrefix(fields[1], "crc32=")
	if !ok || len(hexCRC) != 8 {
		return bad(fmt.Sprintf("malformed checksum field %q", fields[1]))
	}
	v, perr := strconv.ParseUint(hexCRC, 16, 32)
	if perr != nil {
		return bad(fmt.Sprintf("malformed checksum field %q", fields[1]))
	}
	return fields[0], uint32(v), nil
}

// Load opens the committed generation of a saved index. The whole generation
// is verified — commit-record checksum over the manifest, manifest
// invariants (its sections must tile the pack exactly), and every table's
// checksums and sort order — and any violation surfaces as a *CorruptError.
// Tables are served from one read-only mapping of the pack, which the
// returned index owns; call Close on it when done.
func Load(dir string) (*Index, error) {
	raw, err := os.ReadFile(filepath.Join(dir, currentFile))
	if err != nil {
		if os.IsNotExist(err) {
			if _, serr := os.Stat(filepath.Join(dir, manifestFile)); serr == nil {
				return nil, &CorruptError{Path: dir, Detail: "legacy un-checksummed repository layout (manifest.json without CURRENT); re-ingest"}
			}
		}
		return nil, fmt.Errorf("rank: %w", err)
	}
	gen, wantCRC, err := parseCurrent(dir, raw)
	if err != nil {
		return nil, err
	}
	genDir := filepath.Join(dir, gen)
	manifestPath := filepath.Join(genDir, manifestFile)
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		return nil, &CorruptError{Path: dir, Detail: fmt.Sprintf("CURRENT commits %s but its manifest is unreadable", gen), Err: err}
	}
	if got := store.Checksum(data); got != wantCRC {
		return nil, &CorruptError{Path: manifestPath, Detail: fmt.Sprintf("manifest checksum mismatch (committed %08x, computed %08x)", wantCRC, got)}
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, &CorruptError{Path: manifestPath, Detail: "undecodable manifest", Err: err}
	}
	// The format gates everything else: an older generation has no pack to
	// open, and its manifest fields mean something different.
	if m.Format != manifestFormat {
		detail := fmt.Sprintf("unsupported manifest format %d (want %d)", m.Format, manifestFormat)
		if m.Format > 0 && m.Format < manifestFormat {
			detail = fmt.Sprintf("superseded repository layout (manifest format %d, want %d); re-ingest", m.Format, manifestFormat)
		}
		return nil, &CorruptError{Path: manifestPath, Detail: detail}
	}
	pack, err := store.OpenPack(filepath.Join(genDir, packFile))
	if err != nil {
		return nil, &CorruptError{Path: dir, Detail: fmt.Sprintf("CURRENT commits %s but its table pack is unreadable", gen), Err: err}
	}
	genNum, _ := strconv.Atoi(strings.TrimPrefix(gen, "gen-"))
	ix := &Index{
		Name:       m.Name,
		NumClips:   m.NumClips,
		Generation: genNum,
		Objects:    map[string]*TypeIndex{},
		Actions:    map[string]*TypeIndex{},
		pack:       pack,
	}
	// Nothing is sliced out of the pack until every offset is known good.
	if err := validateManifest(manifestPath, &m, pack.Size()); err != nil {
		ix.Close()
		return nil, err
	}
	for _, s := range m.Spans {
		ix.spans = append(ix.spans, videoSpan{videoID: s.VideoID, start: s.Start, clips: s.Clips})
	}
	packPath := filepath.Join(genDir, packFile)
	load := func(types []manifestType, dst map[string]*TypeIndex) error {
		for _, mt := range types {
			tbl, err := pack.Table(mt.Off, mt.Len)
			if err != nil {
				return err
			}
			if tbl.Name() != mt.Type {
				return &CorruptError{Path: packPath, Detail: fmt.Sprintf("section at %d holds the table of type %q, manifest expects %q", mt.Off, tbl.Name(), mt.Type)}
			}
			if lo, hi, ok := tbl.ClipBounds(); ok && (lo < 0 || hi >= m.NumClips) {
				return &CorruptError{Path: packPath, Detail: fmt.Sprintf("table of type %q scores clips [%d,%d] outside the clip space [0,%d)", mt.Type, lo, hi, m.NumClips)}
			}
			ivs := make([]video.Interval, len(mt.Seqs))
			for i, p := range mt.Seqs {
				ivs[i] = video.Interval{Start: p[0], End: p[1]}
			}
			dst[mt.Type] = &TypeIndex{Table: tbl, Seqs: video.NewIntervalSet(ivs...)}
		}
		return nil
	}
	if err := load(m.Objects, ix.Objects); err != nil {
		ix.Close()
		return nil, err
	}
	if err := load(m.Actions, ix.Actions); err != nil {
		ix.Close()
		return nil, err
	}
	return ix, nil
}

// validateManifest checks every invariant the query layer later relies on: a
// sane clip space, video spans inside it, no duplicate types, individual
// sequences that are well-formed intervals within the clip space, and pack
// sections that — in manifest order, objects then actions — tile the
// packSize bytes of the pack exactly: none negative, none past the end (the
// test is overflow-safe, off+len is never formed before it passes), none
// overlapping, no byte uncovered. Offsets and lengths come from a file; they
// are proven here before anything is sliced.
func validateManifest(manifestPath string, m *manifest, packSize int64) error {
	corrupt := func(format string, args ...any) error {
		return &CorruptError{Path: manifestPath, Detail: fmt.Sprintf(format, args...)}
	}
	if m.NumClips < 0 {
		return corrupt("negative clip space (%d clips)", m.NumClips)
	}
	prevEnd := 0
	for i, s := range m.Spans {
		if s.VideoID == "" {
			return corrupt("span %d has no video id", i)
		}
		if s.Start < 0 || s.Clips < 0 || s.Start+s.Clips > m.NumClips {
			return corrupt("span %d (%q) covers clips [%d,%d) outside the clip space [0,%d)", i, s.VideoID, s.Start, s.Start+s.Clips, m.NumClips)
		}
		if s.Start < prevEnd {
			return corrupt("span %d (%q) overlaps the previous span", i, s.VideoID)
		}
		prevEnd = s.Start + s.Clips
	}
	seenType := map[string]bool{}
	covered := int64(0) // the pack is tiled up to here
	check := func(kind string, types []manifestType) error {
		for _, mt := range types {
			if mt.Type == "" {
				return corrupt("%s entry with empty type", kind)
			}
			key := kind + ":" + mt.Type
			if seenType[key] {
				return corrupt("duplicate %s type %q", kind, mt.Type)
			}
			seenType[key] = true
			switch {
			case mt.Off < 0 || mt.Len < 0:
				return corrupt("%s type %q has a negative pack section (off %d, len %d)", kind, mt.Type, mt.Off, mt.Len)
			case mt.Off > packSize || mt.Len > packSize-mt.Off:
				return corrupt("%s type %q section (off %d, len %d) reaches outside the %d-byte pack", kind, mt.Type, mt.Off, mt.Len, packSize)
			case mt.Off < covered:
				return corrupt("%s type %q section at %d overlaps the previous section (which ends at %d)", kind, mt.Type, mt.Off, covered)
			case mt.Off > covered:
				return corrupt("pack bytes [%d,%d) before %s type %q are covered by no section", covered, mt.Off, kind, mt.Type)
			}
			covered = mt.Off + mt.Len
			for i, p := range mt.Seqs {
				if p[0] < 0 || p[1] < p[0] || p[1] >= m.NumClips {
					return corrupt("%s type %q sequence %d is [%d,%d], not a well-formed interval within the clip space [0,%d)", kind, mt.Type, i, p[0], p[1], m.NumClips)
				}
			}
		}
		return nil
	}
	if err := check("object", m.Objects); err != nil {
		return err
	}
	if err := check("action", m.Actions); err != nil {
		return err
	}
	if covered != packSize {
		return corrupt("pack bytes [%d,%d) are covered by no section", covered, packSize)
	}
	return nil
}

// Close releases the index's tables and the one pack mapping under them;
// the tables, in-memory ones included, must not be used afterwards (a read
// returns an error). A second Close is a no-op.
func (ix *Index) Close() error {
	var first error
	for _, m := range []map[string]*TypeIndex{ix.Objects, ix.Actions} {
		for _, ti := range m {
			if c, ok := ti.Table.(*store.DiskTable); ok {
				if err := c.Close(); err != nil && first == nil {
					first = err
				}
			}
		}
	}
	if ix.pack != nil {
		if err := ix.pack.Close(); err != nil && first == nil {
			first = err
		}
		ix.pack = nil
	}
	return first
}
