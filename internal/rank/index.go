package rank

import (
	"fmt"
	"sort"

	"svqact/internal/store"
	"svqact/internal/video"
)

// TypeIndex is the ingested metadata for one object or action type: the clip
// score table (paper §4.2 "clip score tables") and the individual sequences
// (maximal runs of clips on which the type's indicator is positive).
type TypeIndex struct {
	Table store.Table
	Seqs  video.IntervalSet
}

// Index is the queryable result of ingesting one video — or, after Merge,
// a whole repository of videos sharing one global clip-id space.
type Index struct {
	// Name identifies the ingested video or dataset.
	Name string
	// NumClips is the size of the (global) clip-id space.
	NumClips int
	// Objects and Actions map each ingested type to its metadata.
	Objects map[string]*TypeIndex
	Actions map[string]*TypeIndex

	// Generation is the committed generation number this index was loaded
	// from (0 for in-memory indexes that never touched disk).
	Generation int

	// pack is the mapping of the saved generation's table pack that a
	// loaded index's tables are cut from; Close releases it. nil for
	// in-memory indexes.
	pack *store.Pack

	// spans maps global clip ranges back to the originating videos (only
	// set on merged indexes; single-video indexes resolve to themselves).
	spans []videoSpan
}

type videoSpan struct {
	videoID string
	start   int // global clip id of the video's clip 0
	clips   int
}

// Resolve maps a global clip id back to (video, local clip). For a
// single-video index it returns the index name and the clip unchanged.
func (ix *Index) Resolve(clip int) (videoID string, localClip int) {
	for _, s := range ix.spans {
		if clip >= s.start && clip < s.start+s.clips {
			return s.videoID, clip - s.start
		}
	}
	return ix.Name, clip
}

// ObjectTypes returns the ingested object types, sorted.
func (ix *Index) ObjectTypes() []string { return sortedKeys(ix.Objects) }

// ActionTypes returns the ingested action types, sorted.
func (ix *Index) ActionTypes() []string { return sortedKeys(ix.Actions) }

func sortedKeys(m map[string]*TypeIndex) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Merge combines per-video indexes into one repository index with a global
// clip-id space, exactly as the paper prescribes ("we just associate a video
// identifier for each cid"). One empty clip id is left between consecutive
// videos so sequences can never merge across video boundaries.
func Merge(name string, indexes []*Index) (*Index, error) {
	out := &Index{
		Name:    name,
		Objects: map[string]*TypeIndex{},
		Actions: map[string]*TypeIndex{},
	}
	objEntries := map[string][]store.Entry{}
	actEntries := map[string][]store.Entry{}
	objSeqs := map[string][]video.Interval{}
	actSeqs := map[string][]video.Interval{}

	offset := 0
	for _, ix := range indexes {
		if len(ix.spans) > 0 {
			return nil, fmt.Errorf("rank: cannot merge already-merged index %q", ix.Name)
		}
		out.spans = append(out.spans, videoSpan{videoID: ix.Name, start: offset, clips: ix.NumClips})
		shift := func(ti *TypeIndex, entries map[string][]store.Entry, seqs map[string][]video.Interval, typ string) error {
			for i := 0; i < ti.Table.Len(); i++ {
				e, err := ti.Table.SortedAt(i)
				if err != nil {
					return err
				}
				entries[typ] = append(entries[typ], store.Entry{Clip: e.Clip + offset, Score: e.Score})
			}
			for _, iv := range ti.Seqs.Intervals() {
				seqs[typ] = append(seqs[typ], video.Interval{Start: iv.Start + offset, End: iv.End + offset})
			}
			return nil
		}
		for typ, ti := range ix.Objects {
			if err := shift(ti, objEntries, objSeqs, typ); err != nil {
				return nil, err
			}
		}
		for typ, ti := range ix.Actions {
			if err := shift(ti, actEntries, actSeqs, typ); err != nil {
				return nil, err
			}
		}
		offset += ix.NumClips + 1 // gap clip: sequences never span videos
	}
	out.NumClips = offset

	build := func(entries map[string][]store.Entry, seqs map[string][]video.Interval, dst map[string]*TypeIndex) error {
		for typ := range entries {
			tbl, err := store.NewMemTable(typ, entries[typ])
			if err != nil {
				return err
			}
			dst[typ] = &TypeIndex{Table: tbl, Seqs: video.NewIntervalSet(seqs[typ]...)}
		}
		// Types that produced sequences but no scored clips (possible only
		// in pathological calibrations) still deserve an entry.
		for typ := range seqs {
			if _, ok := dst[typ]; !ok {
				tbl, err := store.NewMemTable(typ, nil)
				if err != nil {
					return err
				}
				dst[typ] = &TypeIndex{Table: tbl, Seqs: video.NewIntervalSet(seqs[typ]...)}
			}
		}
		return nil
	}
	if err := build(objEntries, objSeqs, out.Objects); err != nil {
		return nil, err
	}
	if err := build(actEntries, actSeqs, out.Actions); err != nil {
		return nil, err
	}
	return out, nil
}
