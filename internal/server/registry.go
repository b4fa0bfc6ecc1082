package server

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"sliceline/internal/core"
	"sliceline/internal/frame"
	"sliceline/internal/ml"
)

// datasetEntry is one registered dataset: the integer-encoded frame, its
// one-hot encoding (computed at registration, extended incrementally on
// append — jobs never re-encode), the row-aligned error vector every job on
// it consumes, and the FNV data signature that content-addresses it.
//
// Entries registered in err-column mode are mutable: POST
// /v1/datasets/{id}/rows appends rows, advancing the entry's generation. The
// ID stays the content address of the base upload — the (BaseSig, Gen) pair
// names a generation — while Sig chains from the previous generation's over
// the appended rows (core.ChainSignature), so result-cache keys and
// warm-worker partition addresses (dist placement seeds) from earlier
// generations can never alias the new data. All generation state is guarded
// by mu, and only the holder of mu appends; jobs capture an immutable
// snapshot at submission.
type datasetEntry struct {
	ID      string // ds_<base signature>, stable across generations
	Name    string
	ErrCol  string // err-column registration mode; "" = train-mode (not appendable)
	BaseSig uint64

	mu  sync.Mutex
	DS  *frame.Dataset
	Enc *frame.Encoding
	// ErrVec, genEnd and genAt are append-only, like the appender's arrays:
	// an append extends them in place, and snapshots hold capacity-capped
	// views of the prefix their generation covers.
	ErrVec []float64
	Sig    uint64 // data signature of the current generation
	Gen    int    // applied appends; 0 is the registered base

	ap     *frame.Appender
	genEnd []int         // genEnd[g] = accumulated row count at generation g
	genAt  []time.Time   // genAt[g] = when generation g became current
	change chan struct{} // closed and replaced on every append (monitor wakeup)
}

// dsSnapshot is one dataset generation as a job holds it: the identity the
// job reports and journals, and the data it evaluates. Jobs capture it at
// submission, so a concurrent append never changes what a running job
// evaluates, and drop the data once they are terminal (job.release).
type dsSnapshot struct {
	ID  string
	Sig uint64
	Gen int
	*genData
}

// genData is the data of one dataset generation. Every slice in it is a
// capacity-capped view of an append-only array, so its elements never
// change and an append through it copies.
type genData struct {
	DS     *frame.Dataset
	Enc    *frame.Encoding
	ErrVec []float64
	GenEnd []int       // GenEnd[g] = accumulated row count at generation g
	GenAt  []time.Time // GenAt[g] = when generation g became current
}

// snapshot captures the current generation.
func (d *datasetEntry) snapshot() dsSnapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.snapshotLocked()
}

func (d *datasetEntry) snapshotLocked() dsSnapshot {
	return dsSnapshot{
		ID:  d.ID,
		Sig: d.Sig,
		Gen: d.Gen,
		genData: &genData{
			DS:     d.DS,
			Enc:    d.Enc,
			ErrVec: slices.Clip(d.ErrVec),
			GenEnd: slices.Clip(d.genEnd),
			GenAt:  slices.Clip(d.genAt),
		},
	}
}

// changed returns the current snapshot plus a channel closed on the next
// append, so a monitor can wait for new generations without polling.
func (d *datasetEntry) changed() (dsSnapshot, <-chan struct{}) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.snapshotLocked(), d.change
}

// appendable reports whether the entry accepts row appends.
func (d *datasetEntry) appendable() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ap != nil
}

// appendRows applies one batch of raw rows plus their error values,
// advancing the entry's generation. The dataset, encoding and error vector
// are extended in place past every earlier snapshot's view, and the new
// signature hashes only the batch, so an append costs what it adds.
func (d *datasetEntry) appendRows(rows [][]string, errs []float64, at time.Time) (AppendInfo, error) {
	if len(rows) != len(errs) {
		return AppendInfo{}, fmt.Errorf("server: %d rows vs %d error values", len(rows), len(errs))
	}
	if err := core.CheckValues(errs, core.ErrBadErrorVector); err != nil {
		return AppendInfo{}, fmt.Errorf("server: appended rows: %w", err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ap == nil {
		return AppendInfo{}, fmt.Errorf("server: dataset %s is not appendable (register with an err column)", d.ID)
	}
	res, err := d.ap.AppendRows(rows)
	if err != nil {
		return AppendInfo{}, err
	}
	from := len(d.ErrVec)
	d.DS, d.Enc, d.ErrVec = res.DS, res.Enc, append(d.ErrVec, errs...)
	d.Sig = core.ChainSignature(d.Sig, res.Enc, d.ErrVec, from)
	d.Gen++
	d.genEnd = append(d.genEnd, res.Enc.X.Rows())
	d.genAt = append(d.genAt, at)
	close(d.change)
	d.change = make(chan struct{})
	return AppendInfo{
		ID:         d.ID,
		Generation: d.Gen,
		Rows:       res.Enc.X.Rows(),
		NewRows:    res.NewRows,
		Grown:      res.Grown,
		Signature:  fmt.Sprintf("%016x", d.Sig),
	}, nil
}

func (d *datasetEntry) info() DatasetInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DatasetInfo{
		ID:          d.ID,
		Name:        d.Name,
		Rows:        d.DS.NumRows(),
		Features:    d.DS.NumFeatures(),
		OneHotWidth: d.DS.OneHotWidth(),
		Signature:   fmt.Sprintf("%016x", d.Sig),
		Generation:  d.Gen,
		Appendable:  d.ap != nil,
	}
}

// datasetID derives the content address of a dataset from its signature.
func datasetID(sig uint64) string { return fmt.Sprintf("ds_%016x", sig) }

// registry is the in-memory dataset store. Entries are immutable once
// registered; re-registering identical content is an idempotent no-op that
// returns the existing entry.
type registry struct {
	mu   sync.RWMutex
	byID map[string]*datasetEntry
}

func newRegistry() *registry {
	return &registry{byID: make(map[string]*datasetEntry)}
}

// add registers an entry, returning the canonical entry and whether an
// identical one already existed.
func (r *registry) add(d *datasetEntry) (*datasetEntry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.byID[d.ID]; ok {
		return old, true
	}
	r.byID[d.ID] = d
	return d, false
}

func (r *registry) get(id string) (*datasetEntry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.byID[id]
	return d, ok
}

func (r *registry) list() []*datasetEntry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*datasetEntry, 0, len(r.byID))
	for _, d := range r.byID {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (r *registry) len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byID)
}

// registerOptions carries the query parameters of POST /v1/datasets.
type registerOptions struct {
	Name  string // display name; defaults to the id
	Label string // numeric label column used for model training
	Task  string // "class" (mlogit) or "reg" (linear); used with Label
	Err   string // column holding a precomputed error vector; overrides Label/Task
	Bins  int    // equi-width bins for continuous features (<= 0: 10)
}

// buildDataset turns an uploaded CSV stream into a registry entry. Two modes
// mirror the CLI workflows:
//
//   - error-column mode (err= query parameter): the named numeric column is
//     taken verbatim as the per-row error vector e and excluded from the
//     features — for callers that score their own models;
//   - training mode (label= plus task=): a model is fitted server-side on
//     the label column and e is its per-row loss, the TrainAndScore loop.
//
// The one-hot encoding happens here, once; every job on the dataset reuses
// it, which is the service's whole reason to exist over one-shot CLI runs.
func buildDataset(r io.Reader, opt registerOptions) (*datasetEntry, error) {
	if opt.Bins <= 0 {
		opt.Bins = 10
	}
	f, err := frame.ReadCSV(r)
	if err != nil {
		return nil, err
	}

	var (
		ds     *frame.Dataset
		errVec []float64
	)
	switch {
	case opt.Err != "":
		col, cerr := f.Column(opt.Err)
		if cerr != nil {
			return nil, fmt.Errorf("server: error column: %w", cerr)
		}
		if col.Kind != frame.Numeric {
			return nil, fmt.Errorf("server: error column %q must be numeric", opt.Err)
		}
		if err := core.CheckValues(col.Floats, core.ErrBadErrorVector); err != nil {
			return nil, fmt.Errorf("server: error column %q: %w", opt.Err, err)
		}
		errVec = append([]float64(nil), col.Floats...)
		// The label column (when named) is still extracted as Y but the
		// error column itself must not leak into the features.
		ds, err = frame.FromFrame(f, opt.Label, opt.Bins, opt.Err)
		if err != nil {
			return nil, err
		}
	case opt.Label != "":
		ds, err = frame.FromFrame(f, opt.Label, opt.Bins)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("server: dataset registration needs either label= (train a model server-side) or err= (precomputed error column)")
	}
	if ds.NumRows() == 0 {
		return nil, fmt.Errorf("server: dataset has no rows")
	}
	if ds.NumFeatures() == 0 {
		return nil, fmt.Errorf("server: dataset has no feature columns")
	}
	ds.Name = opt.Name

	enc, err := frame.OneHot(ds)
	if err != nil {
		return nil, err
	}
	if errVec == nil {
		task := opt.Task
		if task == "" {
			task = ml.TaskClass
		}
		if errVec, _, err = ml.TrainAndScore(enc.X, ds.Y, task); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	return finishEntry(ds, enc, errVec, opt.Name, opt.Err)
}

// finishEntry computes the content address and assembles the entry.
// err-column registrations get an appender (the streaming path): appended
// rows carry their own error values, so no server-side model is involved.
func finishEntry(ds *frame.Dataset, enc *frame.Encoding, errVec []float64, name, errCol string) (*datasetEntry, error) {
	if len(errVec) != ds.NumRows() {
		return nil, fmt.Errorf("server: error vector length %d vs %d rows", len(errVec), ds.NumRows())
	}
	sig := core.DataSignature(enc, errVec, nil)
	id := datasetID(sig)
	if name == "" {
		name = id
	}
	ds.Name = name
	d := &datasetEntry{
		ID: id, Name: name, ErrCol: errCol, BaseSig: sig,
		// Clipped, so the first append copies instead of writing into
		// spare capacity the caller may share.
		DS: ds, Enc: enc, ErrVec: slices.Clip(errVec), Sig: sig,
		genEnd: []int{ds.NumRows()},
		genAt:  []time.Time{time.Now()},
		change: make(chan struct{}),
	}
	if errCol != "" {
		ap, err := frame.NewAppender(ds, enc)
		if err == nil {
			d.ap = ap
		}
	}
	return d, nil
}

// parseAppendCSV parses the body of POST /v1/datasets/{id}/rows: a CSV
// document whose header names every feature column of the dataset plus its
// err column, in any order (extra columns are ignored, mirroring err-column
// registration). Returns the feature cells in dataset feature order plus the
// per-row error values.
func parseAppendCSV(r io.Reader, feats []frame.Feature, errCol string) ([][]string, []float64, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, nil, fmt.Errorf("server: reading append header: %w", err)
	}
	colOf := make(map[string]int, len(header))
	for i, name := range header {
		colOf[name] = i
	}
	featIdx := make([]int, len(feats))
	for j, f := range feats {
		i, ok := colOf[f.Name]
		if !ok {
			return nil, nil, fmt.Errorf("server: append body misses feature column %q", f.Name)
		}
		featIdx[j] = i
	}
	errIdx, ok := colOf[errCol]
	if !ok {
		return nil, nil, fmt.Errorf("server: append body misses error column %q", errCol)
	}
	var (
		rows [][]string
		errs []float64
	)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("server: reading append row %d: %w", len(rows), err)
		}
		cells := make([]string, len(feats))
		for j, i := range featIdx {
			cells[j] = rec[i]
		}
		e, perr := strconv.ParseFloat(rec[errIdx], 64)
		if perr != nil {
			return nil, nil, fmt.Errorf("server: append row %d: error column: %v", len(rows), perr)
		}
		rows = append(rows, cells)
		errs = append(errs, e)
	}
	if len(rows) == 0 {
		return nil, nil, fmt.Errorf("server: append body has no rows")
	}
	return rows, errs, nil
}
