package frame

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"sliceline/internal/matrix"
)

// ColumnEncoder is the frozen value→code mapping of one encoded feature.
// Categorical features carry the recode table (Labels[k-1] is the category of
// code k, in first-appearance order); numeric features carry the equi-width
// binning range fixed at registration. Appended rows are encoded against this
// mapping, so existing codes never change: a known category or an in-range
// value reuses its code, an unseen category allocates the next code (growing
// the domain), and an out-of-range numeric value clamps to the nearest edge
// bin. NaN maps to the dedicated missing bin NBins+1, allocating it on first
// appearance exactly like BinEquiWidth does at registration.
type ColumnEncoder struct {
	Name   string
	Kind   Kind
	Labels []string // categorical decode table; index+1 = code
	Lo, Hi float64  // numeric: frozen bin range [Lo, Hi]
	NBins  int      // numeric: equi-width bin count (missing bin = NBins+1)
}

// edges reconstructs the bin boundaries exactly as BinEquiWidth produced them.
func (ce *ColumnEncoder) edges() []float64 {
	edges := make([]float64, ce.NBins+1)
	width := (ce.Hi - ce.Lo) / float64(ce.NBins)
	for i := range edges {
		edges[i] = ce.Lo + float64(i)*width
	}
	edges[ce.NBins] = ce.Hi
	return edges
}

// binCode encodes one numeric value with the frozen edges, replicating
// BinEquiWidth's in-range arithmetic bit for bit and clamping out-of-range
// values to the first/last bin.
func (ce *ColumnEncoder) binCode(v float64) int {
	if math.IsNaN(v) {
		return ce.NBins + 1
	}
	width := (ce.Hi - ce.Lo) / float64(ce.NBins)
	if width == 0 {
		return 1
	}
	b := int((v-ce.Lo)/width) + 1
	if b > ce.NBins {
		b = ce.NBins
	}
	if b < 1 {
		b = 1
	}
	return b
}

// AppendResult describes one applied append batch: the accumulated dataset
// and encoding after the batch. A grown domain shifts later features'
// one-hot blocks; callers carrying per-column state across the append derive
// the shift from the two encodings' Beg offsets.
type AppendResult struct {
	// DS and Enc are the accumulated dataset and one-hot encoding after the
	// append: new values whose X0 codes and CSR components are
	// capacity-capped views of the appender's shared arrays. Values handed
	// out before the append stay valid and unchanged.
	DS  *Dataset
	Enc *Encoding
	// NewRows is the number of rows this batch appended.
	NewRows int
	// Grown lists the features whose domain grew, by name.
	Grown []string
}

// Appender encodes appended rows against a dataset's frozen column encoders,
// maintaining the accumulated integer matrix and one-hot encoding across
// batches. The CSR row pointers, column ids and X0 codes are append-only
// arrays that every generation shares: a batch appends its rows into their
// spare capacity, and each published Dataset and Encoding is a
// capacity-capped view (s[:n:n]) of the prefix it covers. So no holder of an
// earlier generation sees an element change, an append through its view
// copies instead of writing the shared tail, and concurrent readers of an
// earlier generation are never invalidated. An appended batch costs
// O(batch), amortized over the arrays' growth; a grown domain adds O(nnz),
// because existing one-hot columns shift to keep the per-feature block
// layout and the column ids are remapped into a fresh array (row pointers
// and codes stay shared). Only one goroutine may append at a time.
//
// The invariant that makes incremental maintenance tractable downstream: the
// accumulated encoding after any sequence of appends is byte-identical to
// encoding the concatenated rows in one shot (for categorical features; for
// numeric features the bin edges stay frozen at their registration values
// instead of being re-derived from the grown value range).
type Appender struct {
	name  string
	feats []Feature
	encs  []ColumnEncoder
	cat   []map[string]int // per-feature label→code index (nil for numeric)
	x0    *IntMatrix
	enc   *Encoding

	// rowPtr, colIdx and codes back every generation's CSR components and
	// X0 codes. Only AppendRows writes them, and only past the length of
	// any published view.
	rowPtr, colIdx, codes []int
}

// NewAppender wraps a dataset and its one-hot encoding for appends. The
// dataset must carry its column encoders (FromFrame records them); datasets
// built directly from integer codes are not appendable.
func NewAppender(ds *Dataset, enc *Encoding) (*Appender, error) {
	if len(ds.Encoders) == 0 {
		return nil, fmt.Errorf("frame: dataset %s has no column encoders; only FromFrame datasets are appendable", ds.Name)
	}
	if len(ds.Encoders) != len(ds.Features) {
		return nil, fmt.Errorf("frame: dataset %s has %d encoders vs %d features", ds.Name, len(ds.Encoders), len(ds.Features))
	}
	rowPtr, colIdx := enc.X.Components()
	nc := ds.X0.Rows * ds.X0.Cols
	a := &Appender{
		name:  ds.Name,
		feats: append([]Feature(nil), ds.Features...),
		encs:  append([]ColumnEncoder(nil), ds.Encoders...),
		cat:   make([]map[string]int, len(ds.Features)),
		x0:    ds.X0,
		enc:   enc,
		// Clipped, so the first append copies rather than writing into
		// spare capacity the caller's arrays may share with other data.
		rowPtr: slices.Clip(rowPtr),
		colIdx: slices.Clip(colIdx),
		codes:  ds.X0.Data[:nc:nc],
	}
	for j, ce := range a.encs {
		if ce.Kind == Categorical {
			idx := make(map[string]int, len(ce.Labels))
			for k, lab := range ce.Labels {
				idx[lab] = k + 1
			}
			a.cat[j] = idx
			if len(ce.Labels) != ds.Features[j].Domain {
				return nil, fmt.Errorf("frame: feature %q has %d labels vs domain %d", ce.Name, len(ce.Labels), ds.Features[j].Domain)
			}
		}
	}
	return a, nil
}

// Rows returns the accumulated row count.
func (a *Appender) Rows() int { return a.x0.Rows }

// Dataset returns the current accumulated dataset. The label vector is not
// carried across appends (streaming operates on precomputed error vectors).
func (a *Appender) Dataset() *Dataset {
	return &Dataset{Name: a.name, X0: a.x0, Features: a.feats, Encoders: a.encs}
}

// Encoding returns the current accumulated one-hot encoding.
func (a *Appender) Encoding() *Encoding { return a.enc }

// AppendRows encodes and appends one batch of raw rows. vals[i][j] is the
// cell of appended row i for feature j (in the dataset's feature order);
// numeric features are parsed with ParseFloat. An error leaves the appender
// unchanged — a batch either applies whole or not at all.
func (a *Appender) AppendRows(vals [][]string) (*AppendResult, error) {
	if len(vals) == 0 {
		return nil, fmt.Errorf("frame: empty append batch")
	}
	m := len(a.feats)
	// Pass 1: encode every cell against the frozen encoders, staging the
	// codes past the end of the shared codes array (no view covers them)
	// and domain growth in copied label tables, so a failed batch leaves no
	// trace.
	nOld := a.x0.Rows
	codes := slices.Grow(a.codes, len(vals)*m)
	newDom := make([]int, m)
	newLabels := make([][]string, m) // staged categorical labels (nil = unchanged)
	for j := range a.feats {
		newDom[j] = a.feats[j].Domain
	}
	for i, row := range vals {
		if len(row) != m {
			return nil, fmt.Errorf("frame: append row %d has %d cells, want %d", i, len(row), m)
		}
		for j, cell := range row {
			ce := &a.encs[j]
			var code int
			if ce.Kind == Categorical {
				var ok bool
				code, ok = a.cat[j][cell]
				if !ok {
					// Staged allocation: visible to later rows of this batch
					// through newLabels, committed only on success.
					if newLabels[j] == nil {
						newLabels[j] = append([]string(nil), ce.Labels...)
					}
					idx := indexOf(newLabels[j], cell, len(ce.Labels))
					if idx < 0 {
						newLabels[j] = append(newLabels[j], cell)
						idx = len(newLabels[j])
					} else {
						idx++
					}
					code = idx
					if code > newDom[j] {
						newDom[j] = code
					}
				}
			} else {
				v, err := strconv.ParseFloat(cell, 64)
				if err != nil {
					return nil, fmt.Errorf("frame: append row %d: feature %q: %v", i, ce.Name, err)
				}
				code = ce.binCode(v)
				if code > newDom[j] {
					newDom[j] = code
				}
			}
			codes = append(codes, code)
		}
	}

	// Pass 2: commit. Compute the column remap if any domain grew.
	oldEnc := a.enc
	var remap []int
	var grown []string
	for j := range a.feats {
		if newDom[j] > a.feats[j].Domain {
			grown = append(grown, a.feats[j].Name)
		}
	}
	newBeg := make([]int, m)
	newEnd := make([]int, m)
	l := 0
	for j := range a.feats {
		newBeg[j] = l
		l += newDom[j]
		newEnd[j] = l
	}
	if grown != nil {
		remap = make([]int, oldEnc.Width())
		for j := 0; j < m; j++ {
			for c := oldEnc.Beg[j]; c < oldEnc.End[j]; c++ {
				remap[c] = newBeg[j] + (c - oldEnc.Beg[j])
			}
		}
	}

	// Extend the CSR: one block of m ids per appended row (columns ascend
	// because feature blocks ascend). A grown domain first remaps the old
	// ids into a fresh array, so earlier generations keep their view.
	k := len(vals)
	if remap != nil {
		colIdx := make([]int, len(a.colIdx), max(cap(a.colIdx), len(a.colIdx)+k*m))
		for i, c := range a.colIdx {
			colIdx[i] = remap[c]
		}
		a.colIdx = colIdx
	}
	a.colIdx = slices.Grow(a.colIdx, k*m)
	a.rowPtr = slices.Grow(a.rowPtr, k)
	batch := codes[nOld*m:]
	for i := 0; i < k; i++ {
		for j := 0; j < m; j++ {
			a.colIdx = append(a.colIdx, newBeg[j]+batch[i*m+j]-1)
		}
		a.rowPtr = append(a.rowPtr, len(a.colIdx))
	}
	a.codes = codes

	// Commit feature metadata (fresh slices, so the previous generation
	// keeps its own).
	feats := append([]Feature(nil), a.feats...)
	encs := append([]ColumnEncoder(nil), a.encs...)
	for j := range feats {
		if newDom[j] == feats[j].Domain && newLabels[j] == nil {
			continue
		}
		feats[j].Domain = newDom[j]
		if encs[j].Kind == Categorical {
			labels := newLabels[j]
			if labels == nil {
				labels = encs[j].Labels
			}
			feats[j].Labels = labels
			encs[j].Labels = labels
			for kk := len(a.encs[j].Labels); kk < len(labels); kk++ {
				a.cat[j][labels[kk]] = kk + 1
			}
		} else {
			feats[j].Labels = binLabels(encs[j].edges(), newDom[j])
		}
	}

	// Publish capped views of the shared arrays.
	a.x0 = &IntMatrix{Rows: nOld + k, Cols: m, Data: slices.Clip(a.codes)}
	a.feats = feats
	a.encs = encs
	a.enc = &Encoding{
		X:    matrix.NewCSR(nOld+k, l, slices.Clip(a.rowPtr), slices.Clip(a.colIdx)),
		Beg:  newBeg,
		End:  newEnd,
		Doms: append([]int(nil), newDom...),
	}
	return &AppendResult{
		DS:      a.Dataset(),
		Enc:     a.enc,
		NewRows: k,
		Grown:   grown,
	}, nil
}

// indexOf finds lab among labels staged beyond from (0-based), returning its
// 0-based index or -1. Values before from are covered by the committed map.
func indexOf(labels []string, lab string, from int) int {
	for i := from; i < len(labels); i++ {
		if labels[i] == lab {
			return i
		}
	}
	return -1
}
