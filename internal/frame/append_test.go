package frame

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
)

// catFrame builds a categorical-only frame from row-major cells.
func catFrame(t *testing.T, names []string, rows [][]string) *Frame {
	t.Helper()
	cols := make([]Column, len(names))
	for j, name := range names {
		c := Column{Name: name, Kind: Categorical}
		for _, r := range rows {
			c.Strings = append(c.Strings, r[j])
		}
		cols[j] = c
	}
	fr, err := NewFrame(cols)
	if err != nil {
		t.Fatalf("NewFrame: %v", err)
	}
	return fr
}

// requireSameEncoding asserts two encodings are byte-identical: same CSR
// components, same block layout.
func requireSameEncoding(t *testing.T, got, want *Encoding) {
	t.Helper()
	gp, gc := got.X.Components()
	wp, wc := want.X.Components()
	if got.X.Rows() != want.X.Rows() || got.X.Cols() != want.X.Cols() {
		t.Fatalf("shape: got %dx%d, want %dx%d", got.X.Rows(), got.X.Cols(), want.X.Rows(), want.X.Cols())
	}
	if !reflect.DeepEqual(gp, wp) {
		t.Fatalf("rowPtr mismatch:\ngot  %v\nwant %v", gp, wp)
	}
	if !reflect.DeepEqual(gc, wc) {
		t.Fatalf("colIdx mismatch:\ngot  %v\nwant %v", gc, wc)
	}
	if !reflect.DeepEqual(got.Beg, want.Beg) || !reflect.DeepEqual(got.End, want.End) || !reflect.DeepEqual(got.Doms, want.Doms) {
		t.Fatalf("layout mismatch: got Beg=%v End=%v Doms=%v, want Beg=%v End=%v Doms=%v",
			got.Beg, got.End, got.Doms, want.Beg, want.End, want.Doms)
	}
}

func newTestAppender(t *testing.T, names []string, rows [][]string) *Appender {
	t.Helper()
	ds, err := FromFrame(catFrame(t, names, rows), "", 5)
	if err != nil {
		t.Fatalf("FromFrame: %v", err)
	}
	enc, err := OneHot(ds)
	if err != nil {
		t.Fatalf("OneHot: %v", err)
	}
	a, err := NewAppender(ds, enc)
	if err != nil {
		t.Fatalf("NewAppender: %v", err)
	}
	return a
}

// TestAppendMatchesConcat is the core byte-identity contract: K appends must
// reproduce exactly the encoding of the concatenated rows in one shot,
// including appends that grow a feature's domain.
func TestAppendMatchesConcat(t *testing.T) {
	names := []string{"dev", "os"}
	base := [][]string{{"d0", "o0"}, {"d1", "o0"}, {"d0", "o1"}}
	batches := [][][]string{
		{{"d1", "o1"}},                             // no growth
		{{"d2", "o0"}, {"d0", "o2"}},               // both features grow
		{{"d2", "o2"}, {"d3", "o3"}, {"d3", "o0"}}, // growth incl. repeat within batch
	}
	a := newTestAppender(t, names, base)
	all := append([][]string(nil), base...)
	for bi, b := range batches {
		res, err := a.AppendRows(b)
		if err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
		all = append(all, b...)
		ds, err := FromFrame(catFrame(t, names, all), "", 5)
		if err != nil {
			t.Fatalf("FromFrame(concat): %v", err)
		}
		want, err := OneHot(ds)
		if err != nil {
			t.Fatalf("OneHot(concat): %v", err)
		}
		requireSameEncoding(t, res.Enc, want)
		if !reflect.DeepEqual(res.DS.X0.Data, ds.X0.Data) {
			t.Fatalf("batch %d: X0 mismatch:\ngot  %v\nwant %v", bi, res.DS.X0.Data, ds.X0.Data)
		}
		if !reflect.DeepEqual(res.DS.Features, ds.Features) {
			t.Fatalf("batch %d: features mismatch:\ngot  %+v\nwant %+v", bi, res.DS.Features, ds.Features)
		}
	}
}

// TestAppendColRemap pins the block layout a growth produces: old columns
// keep their in-block offset, blocks shift by the cumulative growth of
// earlier features — the remap core.Incremental derives from Beg offsets.
func TestAppendColRemap(t *testing.T) {
	a := newTestAppender(t, []string{"f1", "f2"}, [][]string{{"a", "x"}, {"b", "y"}})
	// f1 grows by one ("c"): f1 block [0,2) widens to [0,3), f2 block [2,4)
	// shifts to [3,5).
	res, err := a.AppendRows([][]string{{"c", "x"}})
	if err != nil {
		t.Fatal(err)
	}
	if beg, end := res.Enc.Beg, res.Enc.End; !reflect.DeepEqual(beg, []int{0, 3}) || !reflect.DeepEqual(end, []int{3, 5}) {
		t.Fatalf("grown layout Beg=%v End=%v, want [0 3] [3 5]", beg, end)
	}
	if want := []string{"f1"}; !reflect.DeepEqual(res.Grown, want) {
		t.Fatalf("Grown = %v, want %v", res.Grown, want)
	}
	// No-growth append: the layout stays put.
	res, err = a.AppendRows([][]string{{"a", "y"}})
	if err != nil {
		t.Fatal(err)
	}
	if beg, end := res.Enc.Beg, res.Enc.End; !reflect.DeepEqual(beg, []int{0, 3}) || !reflect.DeepEqual(end, []int{3, 5}) || res.Grown != nil {
		t.Fatalf("no-growth append: Beg=%v End=%v Grown=%v, want [0 3] [3 5] nil", beg, end, res.Grown)
	}
}

// TestAppendSnapshotIsolation: an append must not mutate encodings or
// datasets handed out before it.
func TestAppendSnapshotIsolation(t *testing.T) {
	a := newTestAppender(t, []string{"f"}, [][]string{{"a"}, {"b"}})
	snapDS := a.Dataset()
	snapEnc := a.Encoding()
	rows := snapDS.NumRows()
	_, cIdx := snapEnc.X.Components()
	before := append([]int(nil), cIdx...)
	if _, err := a.AppendRows([][]string{{"c"}, {"a"}}); err != nil {
		t.Fatal(err)
	}
	if snapDS.NumRows() != rows || snapDS.Features[0].Domain != 2 {
		t.Fatalf("snapshot dataset mutated: rows=%d domain=%d", snapDS.NumRows(), snapDS.Features[0].Domain)
	}
	_, after := snapEnc.X.Components()
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("snapshot encoding mutated: %v -> %v", before, after)
	}
}

// TestAppendNumericFrozenBins: numeric appends reuse the registration-time
// bin edges; in-range values land in the same bin FromFrame chose,
// out-of-range values clamp, NaN hits the missing bin (growing the domain on
// first appearance).
func TestAppendNumericFrozenBins(t *testing.T) {
	fr, err := NewFrame([]Column{
		{Name: "v", Kind: Numeric, Floats: []float64{0, 2.5, 5, 7.5, 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := FromFrame(fr, "", 4) // edges 0,2.5,5,7.5,10
	if err != nil {
		t.Fatal(err)
	}
	enc, err := OneHot(ds)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAppender(ds, enc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.AppendRows([][]string{{"3.0"}, {"-100"}, {"1e9"}, {"NaN"}})
	if err != nil {
		t.Fatal(err)
	}
	n := ds.NumRows()
	got := res.DS.X0.Data[n:]
	// 3.0 → bin 2; -100 clamps to 1; 1e9 clamps to 4; NaN → missing bin 5.
	if want := []int{2, 1, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("appended codes = %v, want %v", got, want)
	}
	if res.DS.Features[0].Domain != 5 {
		t.Fatalf("domain = %d, want 5 (missing bin allocated)", res.DS.Features[0].Domain)
	}
	if res.DS.Features[0].Labels[4] != "missing" {
		t.Fatalf("missing-bin label = %q", res.DS.Features[0].Labels[4])
	}
}

// TestAppendAtomicity: a batch with a bad row must leave the appender
// unchanged, including staged categorical allocations from earlier rows.
func TestAppendAtomicity(t *testing.T) {
	fr, err := NewFrame([]Column{
		{Name: "c", Kind: Categorical, Strings: []string{"a", "b"}},
		{Name: "v", Kind: Numeric, Floats: []float64{1, 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := FromFrame(fr, "", 2)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := OneHot(ds)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAppender(ds, enc)
	if err != nil {
		t.Fatal(err)
	}
	// Row 0 stages a new category "z"; row 1 fails to parse.
	if _, err := a.AppendRows([][]string{{"z", "1.5"}, {"a", "not-a-number"}}); err == nil {
		t.Fatal("want parse error")
	}
	if a.Rows() != 2 {
		t.Fatalf("failed batch changed row count: %d", a.Rows())
	}
	if a.Dataset().Features[0].Domain != 2 {
		t.Fatalf("failed batch leaked staged category: domain=%d", a.Dataset().Features[0].Domain)
	}
	// "z" must now allocate fresh as code 3, not reuse a leaked slot.
	res, err := a.AppendRows([][]string{{"z", "1.5"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.DS.X0.At(2, 0); got != 3 {
		t.Fatalf("code for z = %d, want 3", got)
	}
}

func TestAppendErrors(t *testing.T) {
	a := newTestAppender(t, []string{"f"}, [][]string{{"a"}})
	if _, err := a.AppendRows(nil); err == nil {
		t.Error("empty batch: want error")
	}
	if _, err := a.AppendRows([][]string{{"a", "extra"}}); err == nil {
		t.Error("wrong arity: want error")
	}
	// Datasets without encoders are not appendable.
	ds := &Dataset{X0: NewIntMatrix(1, 1), Features: []Feature{{Name: "f", Domain: 1}}}
	if _, err := NewAppender(ds, nil); err == nil {
		t.Error("no encoders: want error")
	}
}

// FuzzAppendRows drives the byte-identity contract with arbitrary seeded
// schedules: split a random categorical table at random points into a base
// frame plus K append batches, and require the accumulated encoding to be
// byte-identical to encoding the whole table at once. Categorical-only by
// construction: numeric bin edges are frozen at registration, so numeric
// append-vs-concat identity intentionally does not hold.
func FuzzAppendRows(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(2), uint8(3), uint8(4))
	f.Add(int64(2), uint8(20), uint8(3), uint8(2), uint8(1))
	f.Add(int64(42), uint8(5), uint8(1), uint8(9), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, nRows, nCols, domain, nBatches uint8) {
		n := 1 + int(nRows)%40
		m := 1 + int(nCols)%4
		dom := 1 + int(domain)%6
		k := 1 + int(nBatches)%5
		rng := rand.New(rand.NewSource(seed))
		rows := make([][]string, n)
		for i := range rows {
			rows[i] = make([]string, m)
			for j := range rows[i] {
				rows[i][j] = "v" + strconv.Itoa(rng.Intn(dom))
			}
		}
		names := make([]string, m)
		for j := range names {
			names[j] = "f" + strconv.Itoa(j)
		}
		// Random split points: base gets at least one row, each batch at
		// least one row (drop batches when rows run out).
		baseN := 1 + rng.Intn(n)
		a := newTestAppender(t, names, rows[:baseN])
		at := baseN
		for b := 0; b < k && at < n; b++ {
			size := 1 + rng.Intn(n-at)
			if b == k-1 {
				size = n - at // last batch takes the rest
			}
			if _, err := a.AppendRows(rows[at : at+size]); err != nil {
				t.Fatalf("AppendRows: %v", err)
			}
			at += size
		}
		ds, err := FromFrame(catFrame(t, names, rows[:at]), "", 5)
		if err != nil {
			t.Fatalf("FromFrame(concat): %v", err)
		}
		want, err := OneHot(ds)
		if err != nil {
			t.Fatalf("OneHot(concat): %v", err)
		}
		requireSameEncoding(t, a.Encoding(), want)
		if !reflect.DeepEqual(a.Dataset().X0.Data, ds.X0.Data) {
			t.Fatal("X0 mismatch after appends")
		}
	})
}

// TestAppendManyBatches exercises a longer schedule with steady growth.
func TestAppendManyBatches(t *testing.T) {
	names := []string{"a", "b", "c"}
	rng := rand.New(rand.NewSource(7))
	row := func(gen int) []string {
		// Occasionally mint a generation-tagged value to force growth.
		cells := make([]string, 3)
		for j := range cells {
			if rng.Intn(4) == 0 {
				cells[j] = fmt.Sprintf("g%d_%d", gen, j)
			} else {
				cells[j] = "v" + strconv.Itoa(rng.Intn(3))
			}
		}
		return cells
	}
	base := [][]string{row(0), row(0), row(0), row(0)}
	a := newTestAppender(t, names, base)
	all := append([][]string(nil), base...)
	for gen := 1; gen <= 8; gen++ {
		batch := [][]string{row(gen), row(gen)}
		if _, err := a.AppendRows(batch); err != nil {
			t.Fatalf("gen %d: %v", gen, err)
		}
		all = append(all, batch...)
	}
	ds, err := FromFrame(catFrame(t, names, all), "", 5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := OneHot(ds)
	if err != nil {
		t.Fatal(err)
	}
	requireSameEncoding(t, a.Encoding(), want)
}
