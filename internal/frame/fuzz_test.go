package frame

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// FuzzCSVRoundTrip checks that the CSV codec reaches a fixed point after one
// write: whatever normalization ReadCSV applies to arbitrary input, writing
// the resulting frame and re-reading it must reproduce the frame and the
// bytes exactly. This pins column-kind inference (a column must not flip
// between categorical and numeric across round trips) and float formatting.
func FuzzCSVRoundTrip(f *testing.F) {
	f.Add([]byte("a,b\n1,x\n2,y\n"))
	f.Add([]byte("f1,f2,f3\n0.5,cat,3\n1.5,dog,4\n"))
	f.Add([]byte("n\nNaN\n+Inf\n1e300\n"))
	f.Add([]byte("q\n\" spaced\"\n\"com,ma\"\n\"quo\"\"te\"\n"))
	f.Add([]byte("only_header\n"))
	f.Add([]byte("\"\"\nx\n")) // lone empty header name: must not vanish on write
	f.Add([]byte("a\n\"\"\n")) // lone empty cell: must not be skipped as a blank line
	f.Fuzz(func(t *testing.T, data []byte) {
		f1, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			t.Skip()
		}
		var b1 bytes.Buffer
		if err := WriteCSV(&b1, f1); err != nil {
			t.Fatalf("WriteCSV on freshly parsed frame: %v", err)
		}
		f2, err := ReadCSV(bytes.NewReader(b1.Bytes()))
		if err != nil {
			t.Fatalf("re-reading written csv: %v\ncsv:\n%s", err, b1.Bytes())
		}
		if f2.NumRows() != f1.NumRows() || f2.NumCols() != f1.NumCols() {
			t.Fatalf("round trip changed shape: %dx%d -> %dx%d",
				f1.NumRows(), f1.NumCols(), f2.NumRows(), f2.NumCols())
		}
		for j, c1 := range f1.Columns() {
			if f2.Columns()[j].Kind != c1.Kind {
				t.Fatalf("column %d (%q) flipped kind across round trip", j, c1.Name)
			}
		}
		var b2 bytes.Buffer
		if err := WriteCSV(&b2, f2); err != nil {
			t.Fatalf("second WriteCSV: %v", err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatalf("csv not a fixed point after one write:\nfirst:\n%s\nsecond:\n%s", b1.Bytes(), b2.Bytes())
		}
	})
}

// FuzzCSVToDataset checks the full ingestion pipeline: any CSV that parses
// into a frame must encode into a structurally valid dataset whose one-hot
// encoding preserves the integer codes exactly.
func FuzzCSVToDataset(f *testing.F) {
	f.Add([]byte("a,b\n1,x\n2,y\n1,x\n"))
	f.Add([]byte("v\n0.1\n0.9\n0.5\nNaN\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			t.Skip()
		}
		if fr.NumRows() > 500 || fr.NumCols() > 20 {
			t.Skip() // keep per-input cost bounded
		}
		ds, err := FromFrame(fr, "", 5)
		if err != nil {
			t.Skip() // e.g. empty-name label column, zero rows
		}
		if err := ds.Validate(); err != nil {
			t.Fatalf("FromFrame produced an invalid dataset: %v", err)
		}
		enc, err := OneHot(ds)
		if err != nil {
			t.Fatalf("OneHot on valid dataset: %v", err)
		}
		if enc.Width() != ds.OneHotWidth() {
			t.Fatalf("one-hot width %d vs %d", enc.Width(), ds.OneHotWidth())
		}
		// Every row must have exactly one set column per feature, in
		// ascending order, and the column must decode back to the original
		// code via FeatureOf/ValueOf.
		m := ds.NumFeatures()
		rowPtr, colIdx := enc.X.Components()
		for i := 0; i < ds.NumRows(); i++ {
			if rowPtr[i+1]-rowPtr[i] != m {
				t.Fatalf("row %d has %d nonzeros, want %d (one per feature)", i, rowPtr[i+1]-rowPtr[i], m)
			}
			for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
				c := colIdx[k]
				if k > rowPtr[i] && c <= colIdx[k-1] {
					t.Fatalf("row %d: one-hot columns %v not strictly ascending", i, colIdx[rowPtr[i]:rowPtr[i+1]])
				}
				j := enc.FeatureOf(c)
				if got, want := enc.ValueOf(c), ds.X0.At(i, j); got != want {
					t.Fatalf("row %d feature %d: one-hot column %d decodes to %d, X0 has %d", i, j, c, got, want)
				}
			}
		}
	})
}

// FuzzOneHot checks that OneHot, which range-checks codes while it writes
// the ids, accepts exactly the datasets Validate accepts and fails with
// Validate's error text. The seed draws the shape, the domains, the codes
// and the labels; the flags in bad break them: domains below 1, several
// cells holding 0, a negative code or one above the domain, a label count
// that misses the row count, a feature count that misses X0's columns, and
// a nil X0. On success row i's ids must be Beg[j] + code - 1.
func FuzzOneHot(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(3), uint8(0))
	f.Add(int64(2), uint8(8), uint8(4), uint8(0x02)) // bad cells
	f.Add(int64(3), uint8(4), uint8(3), uint8(0x01)) // bad domains
	f.Add(int64(2), uint8(0), uint8(4), uint8(0x01)) // bad domains, no rows
	f.Add(int64(4), uint8(6), uint8(2), uint8(0x10)) // label count
	f.Add(int64(5), uint8(3), uint8(3), uint8(0x20)) // feature count
	f.Add(int64(6), uint8(0), uint8(0), uint8(0x40)) // nil X0
	f.Add(int64(7), uint8(7), uint8(5), uint8(0x1f)) // all at once
	f.Fuzz(func(t *testing.T, seed int64, rows, cols, bad uint8) {
		rng := rand.New(rand.NewSource(seed))
		n, m := int(rows%10), int(cols%6)
		ds := &Dataset{Name: "fuzz", X0: NewIntMatrix(n, m), Features: make([]Feature, m)}
		for j := range ds.Features {
			dom := 1 + rng.Intn(4)
			if bad&0x01 != 0 && rng.Intn(3) == 0 {
				dom = -rng.Intn(2) // 0 or -1
			}
			ds.Features[j] = Feature{Name: fmt.Sprintf("f%d", j), Domain: dom}
			for i := 0; i < n; i++ {
				ds.X0.Set(i, j, 1+rng.Intn(max(dom, 1)))
			}
		}
		if bad&0x02 != 0 && n*m > 0 {
			for k := 1 + int(bad>>2&0x03); k > 0; k-- {
				i, j := rng.Intn(n), rng.Intn(m)
				switch rng.Intn(3) {
				case 0:
					ds.X0.Set(i, j, 0)
				case 1:
					ds.X0.Set(i, j, -1-rng.Intn(3))
				default:
					ds.X0.Set(i, j, ds.Features[j].Domain+1+rng.Intn(3))
				}
			}
		}
		if bad&0x10 != 0 {
			ds.Y = make([]float64, rng.Intn(n+3)) // usually not n
		} else if rng.Intn(2) == 0 {
			ds.Y = make([]float64, n)
		}
		if bad&0x20 != 0 {
			ds.Features = append(ds.Features, Feature{Name: "extra", Domain: 1})
		}
		if bad&0x40 != 0 {
			ds.X0 = nil
		}

		want := ds.Validate()
		enc, err := OneHot(ds)
		if (err == nil) != (want == nil) || err != nil && err.Error() != want.Error() {
			t.Fatalf("OneHot error %v, Validate error %v", err, want)
		}
		if err != nil {
			return
		}
		if enc.X.Rows() != n || enc.Width() != ds.OneHotWidth() || enc.X.NNZ() != n*m {
			t.Fatalf("encoding is %dx%d with %d ids, want %dx%d with %d",
				enc.X.Rows(), enc.Width(), enc.X.NNZ(), n, ds.OneHotWidth(), n*m)
		}
		for i := 0; i < n; i++ {
			ids := enc.X.RowEntries(i)
			for j, code := range ds.X0.Row(i) {
				if len(ids) != m || ids[j] != enc.Beg[j]+code-1 {
					t.Fatalf("row %d has ids %v for codes %v with offsets %v", i, ids, ds.X0.Row(i), enc.Beg)
				}
			}
		}
	})
}

// FuzzRecode checks the recode invariants SliceLine depends on: codes form
// the continuous range 1..d in order of first appearance, and the decode
// table inverts them exactly.
func FuzzRecode(f *testing.F) {
	f.Add("a,b,a,c")
	f.Add(",,")
	f.Add("x")
	f.Fuzz(func(t *testing.T, joined string) {
		values := strings.Split(joined, ",")
		codes, labels := Recode(values)
		if len(codes) != len(values) {
			t.Fatalf("%d codes for %d values", len(codes), len(values))
		}
		seen := make([]bool, len(labels))
		for i, c := range codes {
			if c < 1 || c > len(labels) {
				t.Fatalf("code %d out of range [1,%d]", c, len(labels))
			}
			if labels[c-1] != values[i] {
				t.Fatalf("labels[%d-1] = %q does not decode value %q", c, labels[c-1], values[i])
			}
			seen[c-1] = true
		}
		for k, s := range seen {
			if !s {
				t.Fatalf("code %d never used: codes are not dense", k+1)
			}
		}
		distinct := map[string]bool{}
		for _, l := range labels {
			if distinct[l] {
				t.Fatalf("duplicate label %q in decode table", l)
			}
			distinct[l] = true
		}
	})
}

// FuzzBinEquiWidth checks the equi-width binner: codes stay in [1, nBins]
// for finite values (nBins+1 is reserved for NaN), binning is monotone, and
// the edge vector brackets every finite input.
func FuzzBinEquiWidth(f *testing.F) {
	f.Add([]byte{10, 20, 30, 255}, uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, nb uint8) {
		nBins := 1 + int(nb%10)
		values := make([]float64, 0, len(data))
		for i, b := range data {
			if b == 255 {
				values = append(values, math.NaN())
			} else {
				values = append(values, float64(int(b)%32)+float64(i%4)/4)
			}
		}
		codes, edges := BinEquiWidth(values, nBins)
		if len(edges) != nBins+1 {
			t.Fatalf("%d edges for %d bins", len(edges), nBins)
		}
		for i, v := range values {
			c := codes[i]
			if math.IsNaN(v) {
				if c != nBins+1 {
					t.Fatalf("NaN mapped to code %d, want missing bin %d", c, nBins+1)
				}
				continue
			}
			if c < 1 || c > nBins {
				t.Fatalf("value %v mapped to code %d out of [1,%d]", v, c, nBins)
			}
			if v < edges[0] || v > edges[nBins] {
				t.Fatalf("value %v outside edge range [%v,%v]", v, edges[0], edges[nBins])
			}
			for k := i + 1; k < len(values); k++ {
				if math.IsNaN(values[k]) {
					continue
				}
				if v < values[k] && c > codes[k] {
					t.Fatalf("binning not monotone: %v->%d but %v->%d", v, c, values[k], codes[k])
				}
			}
		}
	})
}
