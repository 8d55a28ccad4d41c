package store

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

// TestPackSectionsEqualStandaloneTables: there is one encoder and one
// verifier. For random entry sets the image AppendTable produces is
// byte-identical to the file WriteTable writes, also when appended behind
// other images, and a table cut from a pack answers SortedAt, ScoreOf and
// ClipBounds exactly like OpenDiskTable on that file.
func TestPackSectionsEqualStandaloneTables(t *testing.T) {
	dir := t.TempDir()
	f := func(a, b, c entriesValue) bool {
		sets := [][]Entry{a.E, b.E, c.E, nil}
		names := []string{"car", "a longer type name", "", "empty"}
		var pack []byte
		var offs []int
		for i, entries := range sets {
			offs = append(offs, len(pack))
			var err error
			if pack, err = AppendTable(pack, names[i], entries); err != nil {
				t.Log(err)
				return false
			}
		}
		offs = append(offs, len(pack))
		packPath := filepath.Join(dir, "tables.pack")
		if err := os.WriteFile(packPath, pack, 0o644); err != nil {
			t.Log(err)
			return false
		}
		p, err := OpenPack(packPath)
		if err != nil {
			t.Log(err)
			return false
		}
		defer p.Close()
		for i, entries := range sets {
			path := filepath.Join(dir, "t.tbl")
			if err := WriteTable(path, names[i], entries); err != nil {
				t.Log(err)
				return false
			}
			file, err := os.ReadFile(path)
			if err != nil {
				t.Log(err)
				return false
			}
			if !bytes.Equal(file, pack[offs[i]:offs[i+1]]) {
				t.Logf("section %d differs from the standalone file", i)
				return false
			}
			alone, err := OpenDiskTable(path)
			if err != nil {
				t.Log(err)
				return false
			}
			defer alone.Close()
			cut, err := p.Table(int64(offs[i]), int64(offs[i+1]-offs[i]))
			if err != nil {
				t.Log(err)
				return false
			}
			if !sameAnswers(t, cut, alone) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// sameAnswers compares every observable of two disk tables, probing ScoreOf
// at each stored clip and at the ids around and between them.
func sameAnswers(t *testing.T, a, b *DiskTable) bool {
	if a.Name() != b.Name() || a.Len() != b.Len() {
		t.Logf("name/len: %q/%d vs %q/%d", a.Name(), a.Len(), b.Name(), b.Len())
		return false
	}
	alo, ahi, aok := a.ClipBounds()
	blo, bhi, bok := b.ClipBounds()
	if alo != blo || ahi != bhi || aok != bok {
		t.Logf("ClipBounds: %d,%d,%v vs %d,%d,%v", alo, ahi, aok, blo, bhi, bok)
		return false
	}
	for i := -1; i <= a.Len(); i++ {
		ae, aerr := a.SortedAt(i)
		be, berr := b.SortedAt(i)
		if ae != be || (aerr == nil) != (berr == nil) {
			t.Logf("SortedAt(%d): %v,%v vs %v,%v", i, ae, aerr, be, berr)
			return false
		}
	}
	for clip := alo - 2; clip <= ahi+2; clip++ {
		as, aok, aerr := a.ScoreOf(clip)
		bs, bok, berr := b.ScoreOf(clip)
		if as != bs || aok != bok || aerr != nil || berr != nil {
			t.Logf("ScoreOf(%d): %v,%v,%v vs %v,%v,%v", clip, as, aok, aerr, bs, bok, berr)
			return false
		}
	}
	return true
}

// TestPackBoundsAndLifetime: a section outside the pack is a CorruptError,
// never a slice panic; a table cut from the pack is dead after its own
// Close; the pack unmaps once.
func TestPackBoundsAndLifetime(t *testing.T) {
	image, err := AppendTable(nil, "car", tblEntries(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tables.pack")
	if err := os.WriteFile(path, append(append([]byte(nil), image...), image...), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := OpenPack(path)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(len(image))
	if p.Size() != 2*n {
		t.Fatalf("Size = %d, want %d", p.Size(), 2*n)
	}
	for _, sec := range [][2]int64{
		{-1, n}, {0, -1}, {0, 2*n + 1}, {2 * n, 1}, {2*n + 1, 0}, {n, math.MaxInt64}, {math.MaxInt64, math.MaxInt64},
		{0, n - 1}, {1, n}, {0, 2 * n}, {n / 2, n}, // inside the pack, but not one image
	} {
		tbl, err := p.Table(sec[0], sec[1])
		if !IsCorrupt(err) {
			t.Errorf("Table(%d, %d): err = %v (table %v), want CorruptError", sec[0], sec[1], err, tbl != nil)
		}
	}
	tbl, err := p.Table(n, n)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.SortedAt(0); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.SortedAt(0); err == nil {
		t.Error("SortedAt succeeded on a closed section table")
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := p.Table(0, n); !IsCorrupt(err) {
		t.Errorf("Table on a closed pack: err = %v, want CorruptError", err)
	}
	if _, err := OpenPack(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Error("OpenPack of a missing file succeeded")
	}
}

// TestVerifyRejectsRegionsWithSwappedScores: an image whose clip region pairs
// the right clips and the right scores the wrong way round has valid
// checksums and both sort orders, and an order-independent fold of row
// checksums cannot tell it from a sound one. ScoreOf would then contradict
// SortedAt; the verifier must notice.
func TestVerifyRejectsRegionsWithSwappedScores(t *testing.T) {
	image, err := AppendTable(nil, "car", []Entry{{Clip: 1, Score: 5}, {Clip: 2, Score: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verifyView(image, "image"); err != nil {
		t.Fatalf("sound image rejected: %v", err)
	}
	clipOff := len(image) - crcSize - 2*rowSize
	rows := image[clipOff : clipOff+2*rowSize]
	var s0, s1 [8]byte
	copy(s0[:], rows[4:12])
	copy(s1[:], rows[rowSize+4:2*rowSize])
	copy(rows[4:12], s1[:])
	copy(rows[rowSize+4:2*rowSize], s0[:])
	binary.LittleEndian.PutUint32(image[clipOff+2*rowSize:], Checksum(rows))
	if _, err := verifyView(image, "image"); !IsCorrupt(err) {
		t.Fatalf("regions that disagree on which clip scored what: err = %v, want CorruptError", err)
	}
}

// tableImage returns a saved table's bytes for the fuzz corpus.
func tableImage(f *testing.F, name string, entries []Entry) []byte {
	image, err := AppendTable(nil, name, entries)
	if err != nil {
		f.Fatal(err)
	}
	return image
}

// FuzzVerifyTable feeds arbitrary bytes to the one table verifier, the
// function every saved byte crosses on its way back in. It must never panic,
// and whatever it accepts must be exactly what the one encoder writes for the
// rows it serves: an accepted image re-encodes to itself.
func FuzzVerifyTable(f *testing.F) {
	f.Add(tableImage(f, "car", tblEntries(12, 5)))
	f.Add(tableImage(f, "", nil))
	f.Add(tableImage(f, "ties", []Entry{{Clip: 3, Score: 1}, {Clip: 1, Score: 1}, {Clip: 2, Score: math.Inf(1)}, {Clip: 0, Score: math.Copysign(0, -1)}}))
	f.Add(append(append([]byte(nil), diskMagicV1[:]...), make([]byte, 32)...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, image []byte) {
		tbl, err := verifyView(image, "fuzz")
		if err != nil {
			if !IsCorrupt(err) {
				t.Fatalf("rejection is not a CorruptError: %v", err)
			}
			return
		}
		entries := make([]Entry, tbl.Len())
		for i := range entries {
			e, err := tbl.SortedAt(i)
			if err != nil {
				t.Fatal(err)
			}
			if s, ok, err := tbl.ScoreOf(e.Clip); err != nil || !ok || math.Float64bits(s) != math.Float64bits(e.Score) {
				t.Fatalf("ScoreOf(%d) = %v,%v,%v; SortedAt(%d) says %v", e.Clip, s, ok, err, i, e.Score)
			}
			entries[i] = e
		}
		again, err := AppendTable(nil, tbl.Name(), entries)
		if err != nil {
			t.Fatalf("accepted image does not re-encode: %v", err)
		}
		if !bytes.Equal(again, image) {
			t.Fatalf("accepted image re-encodes differently:\n got %x\nwant %x", again, image)
		}
	})
}
