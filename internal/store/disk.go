package store

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"slices"
)

// Byte layout of a clip score table image (format 2, checksummed):
//
//	offset 0:  magic "SVQTBL2\n" (8 bytes)
//	offset 8:  row count, uint64 little-endian
//	offset 16: name length, uint16; name bytes
//	then:      header CRC32-C, uint32 (over everything above)
//	then:      count rows ordered by non-increasing score (rank region)
//	then:      rank region CRC32-C, uint32
//	then:      count rows ordered by ascending clip id   (clip region)
//	then:      clip region CRC32-C, uint32
//
// Each row is 12 bytes: clip uint32, score float64. The rank region serves
// sorted scans from either end; the clip region serves random access via
// binary search. Rows are written twice to trade disk (24 bytes per clip and
// type, negligible) for strictly sequential reads on both access paths.
//
// An image lives in one of three places, and the bytes are the same in all:
// on the heap, for a table built in memory (NewMemTable); alone in a file
// (WriteTable / OpenDiskTable); or as one section of a pack — the
// concatenation of a saved generation's images in one file (rank.SaveFS
// copies each table's image into it, OpenPack maps the file once and
// Pack.Table cuts a section out). AppendTable is the only encoder and
// verifyView the only verifier: magic, header checksum, exact size, both
// region checksums, the sort invariant of each region, and that the regions
// hold the same rows; any violation is a *CorruptError. Bytes read back are
// verified once; bytes this process encoded are not.
//
// Durability: WriteTable builds the image in memory and hands it to
// WriteFileAtomic (temp file + fsync + rename + directory sync), so the
// file at path is always complete. A pack is written by its owner under
// that owner's commit protocol (see rank/repo.go).
//
// Access: a DiskTable decodes rows in place from a read-only view of its
// image (mmap on unix, one heap buffer elsewhere — see mapFile), so
// SortedAt and ScoreOf are zero-copy, zero-syscall, and allocation-free:
// rank's offline algorithms walk the sorted region without ever
// materialising []Entry. The view is taken before verification, so what was
// checksummed is exactly what is served, and it survives closing and even
// unlinking the file; files are immutable once committed, so the mapped
// bytes never change underneath a reader. Whoever mapped the file owns the
// mapping: a table from OpenDiskTable unmaps in its own Close, a table cut
// from a Pack only borrows the pack's view and must be closed before the
// pack is.

var (
	diskMagicV1 = [8]byte{'S', 'V', 'Q', 'T', 'B', 'L', '1', '\n'}
	diskMagic   = [8]byte{'S', 'V', 'Q', 'T', 'B', 'L', '2', '\n'}
)

const (
	rowSize      = 12
	fixedHdrSize = 8 + 8 + 2 // magic, count, name length
	crcSize      = 4
)

// AppendTable appends the image of a clip score table, in the layout above,
// to dst and returns the extended slice. Entries may come in any order; NaN
// scores, negative or duplicate clip ids and over-long names are rejected
// with dst returned unchanged.
func AppendTable(dst []byte, name string, entries []Entry) ([]byte, error) {
	if len(name) > math.MaxUint16 {
		return dst, fmt.Errorf("store: table name too long (%d bytes)", len(name))
	}
	for _, e := range entries {
		if e.Clip < 0 || e.Clip > math.MaxUint32 {
			return dst, fmt.Errorf("store: clip id %d out of range", e.Clip)
		}
		if math.IsNaN(e.Score) {
			return dst, fmt.Errorf("store: NaN score for clip %d in table %q", e.Clip, name)
		}
	}
	// Sorted by clip, a duplicate sits next to its twin. Clip ids are then
	// unique, so the rank order (score descending, clip ascending) is total
	// and every sort yields the same rows.
	byClip := slices.Clone(entries)
	slices.SortFunc(byClip, func(a, b Entry) int { return cmp.Compare(a.Clip, b.Clip) })
	for i := 1; i < len(byClip); i++ {
		if byClip[i].Clip == byClip[i-1].Clip {
			return dst, fmt.Errorf("store: duplicate clip %d in table %q", byClip[i].Clip, name)
		}
	}
	byRank := slices.Clone(byClip)
	slices.SortFunc(byRank, func(a, b Entry) int {
		if a.Score != b.Score {
			return -cmp.Compare(a.Score, b.Score)
		}
		return cmp.Compare(a.Clip, b.Clip)
	})

	start := len(dst)
	dst = slices.Grow(dst, fixedHdrSize+len(name)+crcSize+2*(len(byRank)*rowSize+crcSize))
	dst = append(dst, diskMagic[:]...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(byRank)))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(name)))
	dst = append(dst, name...)
	dst = binary.LittleEndian.AppendUint32(dst, Checksum(dst[start:]))
	for _, rows := range [][]Entry{byRank, byClip} {
		region := len(dst)
		for _, e := range rows {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(e.Clip))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Score))
		}
		dst = binary.LittleEndian.AppendUint32(dst, Checksum(dst[region:]))
	}
	return dst, nil
}

// NewMemTable builds an in-memory table: it encodes entries (any order,
// checked as AppendTable checks them) into one image on the heap and serves
// it with the same reader as a mapped table. The image was just encoded, so
// it is not verified again.
func NewMemTable(name string, entries []Entry) (*DiskTable, error) {
	image, err := AppendTable(nil, name, entries)
	if err != nil {
		return nil, err
	}
	return newTable(image), nil
}

// WriteTable writes a clip score table to path as one image, atomically
// (temp file + fsync + rename).
func WriteTable(path, name string, entries []Entry) error {
	return WriteTableFS(OS, path, name, entries)
}

// WriteTableFS is WriteTable against an injectable filesystem.
func WriteTableFS(fsys FS, path, name string, entries []Entry) error {
	image, err := AppendTable(nil, name, entries)
	if err != nil {
		return err
	}
	return WriteFileAtomic(fsys, path, image)
}

// DiskTable is a clip score table served from a read-only zero-copy view of
// its image: one this process encoded (NewMemTable), or one read back and
// verified once at open. Row access decodes in place with no syscalls and no
// allocation.
type DiskTable struct {
	view      []byte
	closeView func() error // nil when the view is on the heap or borrowed from a Pack
	name      string
	count     int
	rankOff   int
	clipOff   int
	minClip   int
	maxClip   int
}

// OpenDiskTable opens and fully verifies a table written by WriteTable.
// Integrity violations — bad magic, checksum mismatches, truncation, broken
// sort order, disagreeing regions — return a *CorruptError.
func OpenDiskTable(path string) (*DiskTable, error) {
	view, closeView, err := mapPath(path)
	if err != nil {
		return nil, err
	}
	t, err := verifyView(view, path)
	if err != nil {
		_ = closeView()
		return nil, err
	}
	t.closeView = closeView
	return t, nil
}

// mapPath maps the whole file at path (see mapFile) and returns the view
// and the function that releases it.
func mapPath(path string) ([]byte, func() error, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	// The view outlives the descriptor on every platform, so the file can be
	// closed as soon as the mapping (or heap read) is established.
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	view, closeView, err := mapFile(f, fi.Size())
	if err != nil {
		return nil, nil, fmt.Errorf("store: mapping %s: %w", path, err)
	}
	return view, closeView, nil
}

// Pack is a read-only mapping of a file holding table images back to back.
// The pack owns the mapping; the tables cut from it borrow it.
type Pack struct {
	path      string
	view      []byte
	closeView func() error
}

// OpenPack maps the file at path. Nothing is verified yet: each section is
// verified when Table cuts it out.
func OpenPack(path string) (*Pack, error) {
	view, closeView, err := mapPath(path)
	if err != nil {
		return nil, err
	}
	return &Pack{path: path, view: view, closeView: closeView}, nil
}

// Size returns the pack's length in bytes.
func (p *Pack) Size() int64 { return int64(len(p.view)) }

// Table verifies the n bytes at off as one table image, with every check
// OpenDiskTable makes on a file, and returns the table served from them. A
// section outside the pack is a *CorruptError like any other violation.
func (p *Pack) Table(off, n int64) (*DiskTable, error) {
	section := fmt.Sprintf("%s[%d:+%d]", p.path, off, n)
	if off < 0 || n < 0 || off > p.Size() || n > p.Size()-off {
		return nil, &CorruptError{Path: section, Detail: fmt.Sprintf("section outside the %d-byte pack", p.Size())}
	}
	return verifyView(p.view[off:off+n:off+n], section)
}

// Close releases the mapping; a second Close is a no-op. Every table cut
// from the pack must be closed first.
func (p *Pack) Close() error {
	cv := p.closeView
	if cv == nil {
		return nil
	}
	p.closeView, p.view = nil, nil
	return cv()
}

// verifyView checks that view is exactly one well-formed table image and
// returns the table served from it; path only labels the errors. The table
// does not own the view.
func verifyView(view []byte, path string) (*DiskTable, error) {
	corrupt := func(format string, args ...any) (*DiskTable, error) {
		return nil, &CorruptError{Path: path, Detail: fmt.Sprintf(format, args...)}
	}
	if len(view) < fixedHdrSize {
		return corrupt("truncated header (%d bytes)", len(view))
	}
	var magic [8]byte
	copy(magic[:], view)
	if magic == diskMagicV1 {
		return corrupt("legacy un-checksummed table (format 1); re-ingest the repository")
	}
	if magic != diskMagic {
		return corrupt("bad magic %q", view[:8])
	}
	count64 := binary.LittleEndian.Uint64(view[8:16])
	nameLen := int(binary.LittleEndian.Uint16(view[16:18]))
	if count64 > math.MaxInt64/(2*rowSize) {
		return corrupt("implausible row count %d", count64)
	}
	count := int(count64)
	headerLen := fixedHdrSize + nameLen + crcSize
	if len(view) < headerLen {
		return corrupt("truncated table name or header checksum")
	}
	hdrCRC := crc32.Update(0, crcTable, view[:fixedHdrSize+nameLen])
	if got := binary.LittleEndian.Uint32(view[fixedHdrSize+nameLen : headerLen]); got != hdrCRC {
		return corrupt("header checksum mismatch (stored %08x, computed %08x)", got, hdrCRC)
	}
	wantSize := int64(headerLen) + 2*(int64(count)*rowSize+crcSize)
	if int64(len(view)) != wantSize {
		return corrupt("image is %d bytes, want %d for %d rows", len(view), wantSize, count)
	}

	t := newTable(view)

	// checkRegion verifies one region's CRC (a single pass over its bytes)
	// and per-row invariant.
	checkRegion := func(region string, off int, check func(i, clip int, score float64) error) error {
		rows := view[off : off+count*rowSize]
		crc := crc32.Update(0, crcTable, rows)
		if got := binary.LittleEndian.Uint32(view[off+count*rowSize : off+count*rowSize+crcSize]); got != crc {
			return &CorruptError{Path: path, Detail: fmt.Sprintf("%s region checksum mismatch (stored %08x, computed %08x)", region, got, crc)}
		}
		for i := 0; i < count; i++ {
			row := rows[i*rowSize : (i+1)*rowSize]
			clip := int(binary.LittleEndian.Uint32(row[0:4]))
			score := math.Float64frombits(binary.LittleEndian.Uint64(row[4:12]))
			if math.IsNaN(score) {
				return &CorruptError{Path: path, Detail: fmt.Sprintf("NaN score at %s row %d", region, i)}
			}
			if err := check(i, clip, score); err != nil {
				return err
			}
		}
		return nil
	}

	// The clip region first: once it is known sorted, ScoreOf works, and the
	// rank pass uses it to prove the two regions hold the same rows.
	prevClip := -1
	err := checkRegion("clip", t.clipOff, func(i, clip int, score float64) error {
		if clip <= prevClip {
			return &CorruptError{Path: path, Detail: fmt.Sprintf("clip region order violated at row %d", i)}
		}
		prevClip = clip
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Rank rows are pairwise distinct (the order is strict) and as many as
	// the clip rows, so each one having its exact twin in the clip region
	// makes the two row sets equal.
	prevScore := math.Inf(1)
	err = checkRegion("rank", t.rankOff, func(i, clip int, score float64) error {
		if i > 0 && (score > prevScore || (score == prevScore && clip <= prevClip)) {
			return &CorruptError{Path: path, Detail: fmt.Sprintf("rank region order violated at row %d", i)}
		}
		prevScore, prevClip = score, clip
		if s, ok, _ := t.ScoreOf(clip); !ok || math.Float64bits(s) != math.Float64bits(score) {
			return &CorruptError{Path: path, Detail: fmt.Sprintf("rank row %d (clip %d) has no equal row in the clip region", i, clip)}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// newTable builds the table served from view, an image whose header and
// size are known good: just encoded, or checked by verifyView. The clip
// bounds are the first and last rows of the clip region; verifyView proves
// that region sorted before anything reads them.
func newTable(view []byte) *DiskTable {
	count := int(binary.LittleEndian.Uint64(view[8:16]))
	nameLen := int(binary.LittleEndian.Uint16(view[16:18]))
	headerLen := fixedHdrSize + nameLen + crcSize
	t := &DiskTable{
		view:    view,
		name:    string(view[fixedHdrSize : fixedHdrSize+nameLen]),
		count:   count,
		rankOff: headerLen,
		clipOff: headerLen + count*rowSize + crcSize,
	}
	if count > 0 {
		t.minClip = t.rowAt(t.clipOff).Clip
		t.maxClip = t.rowAt(t.clipOff + (count-1)*rowSize).Clip
	}
	return t
}

// Image returns the bytes the table serves: its image exactly as AppendTable
// encoded it, for a caller to copy (rank.SaveFS appends it to a pack). The
// bytes are read-only and valid until Close, after which Image is nil.
func (t *DiskTable) Image() []byte { return t.view }

// Close drops the view, and releases it when the table owns it. The table
// must not be used afterwards; a second Close is a no-op.
func (t *DiskTable) Close() error {
	cv := t.closeView
	t.closeView, t.view = nil, nil
	if cv == nil {
		return nil
	}
	return cv()
}

// Name implements Table.
func (t *DiskTable) Name() string { return t.name }

// Len implements Table.
func (t *DiskTable) Len() int { return t.count }

// ClipBounds returns the smallest and largest clip id stored; ok is false
// for an empty table.
func (t *DiskTable) ClipBounds() (lo, hi int, ok bool) {
	if t.count == 0 {
		return 0, 0, false
	}
	return t.minClip, t.maxClip, true
}

// rowAt decodes the row at a byte offset straight out of the view.
func (t *DiskTable) rowAt(off int) Entry {
	row := t.view[off : off+rowSize]
	return Entry{
		Clip:  int(binary.LittleEndian.Uint32(row[0:4])),
		Score: math.Float64frombits(binary.LittleEndian.Uint64(row[4:12])),
	}
}

// SortedAt implements Table. The error return exists only for the Table
// contract (bounds violations and use after Close); in-range access over an
// open table cannot fail.
func (t *DiskTable) SortedAt(i int) (Entry, error) {
	if i < 0 || i >= t.count {
		return Entry{}, fmt.Errorf("store: SortedAt(%d) out of range [0,%d) in table %q", i, t.count, t.name)
	}
	if t.view == nil {
		return Entry{}, fmt.Errorf("store: SortedAt on closed table %q", t.name)
	}
	return t.rowAt(t.rankOff + i*rowSize), nil
}

// ScoreOf implements Table by binary search over the clip-ordered region,
// decoding only the clip ids until the probe hits.
func (t *DiskTable) ScoreOf(clip int) (float64, bool, error) {
	if clip < 0 || t.count == 0 || clip < t.minClip || clip > t.maxClip {
		return 0, false, nil
	}
	if t.view == nil {
		return 0, false, fmt.Errorf("store: ScoreOf on closed table %q", t.name)
	}
	lo, hi := 0, t.count
	for lo < hi {
		mid := (lo + hi) / 2
		off := t.clipOff + mid*rowSize
		switch c := int(binary.LittleEndian.Uint32(t.view[off : off+4])); {
		case c == clip:
			return math.Float64frombits(binary.LittleEndian.Uint64(t.view[off+4 : off+12])), true, nil
		case c < clip:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return 0, false, nil
}
