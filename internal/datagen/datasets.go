package datagen

import (
	"fmt"
	"strings"
)

// Default synthetic scales. The paper's originals are noted alongside;
// scale-sensitive experiments use the relative support σ = n/100, which the
// paper itself argues preserves enumeration characteristics under row
// scaling.
const (
	AdultRows    = 32561  // paper: 32,561 (exact)
	CovtypeRows  = 20000  // paper: 581,012
	KDD98Rows    = 3000   // paper: 95,412
	USCensusRows = 20000  // paper: 2,458,285
	SalariesRows = 397    // paper: 397 (exact)
	CriteoRows   = 100000 // paper: 192,215,183
)

// ByName generates the synthetic dataset a command-line name selects,
// case-insensitively: salaries, adult, covtype, kdd98, uscensus or criteo.
// rows <= 0 selects the dataset's default scale; Salaries and Adult have
// fixed shapes and ignore it.
func ByName(name string, rows int, seed int64) (*Generated, error) {
	switch strings.ToLower(name) {
	case "salaries":
		return Salaries(seed), nil
	case "adult":
		return Adult(seed), nil
	case "covtype":
		return Covtype(rows, seed), nil
	case "kdd98":
		return KDD98(rows, seed), nil
	case "uscensus":
		return USCensus(rows, seed), nil
	case "criteo":
		return Criteo(rows, seed), nil
	}
	return nil, fmt.Errorf("unknown dataset %q (want salaries, adult, covtype, kdd98, uscensus or criteo)", name)
}

// Salaries reproduces the shape of the Salaries dataset: 397 rows, 5
// features (rank, discipline, two binned year counts, sex), l = 27,
// regression task. It is the ablation-study dataset of Figure 3.
func Salaries(seed int64) *Generated {
	s := spec{
		name: "Salaries",
		n:    SalariesRows,
		feats: []feature{
			{name: "rank", dom: 3, group: 0, noise: 0.3},
			{name: "discipline", dom: 2, group: -1},
			{name: "yrs_since_phd", dom: 10, group: 0, noise: 0.2},
			{name: "yrs_service", dom: 10, group: 0, noise: 0.25},
			{name: "sex", dom: 2, group: -1},
		},
		plants: []plant{
			{preds: map[int]int{0: 3, 4: 1}, rate: 2.5},
			{preds: map[int]int{1: 2, 2: 9}, rate: 2.0},
		},
		baseErr: 0.8,
		nGroups: 1,
		task:    "reg",
	}
	return generate(s, seed)
}

// Adult reproduces the UCI Adult shape: 32,561 rows, 14 features whose
// domains sum to l = 162, 2-class task. Adult has a mix of large and small
// slices and exhibits good pruning with early termination (Figure 4a).
func Adult(seed int64) *Generated {
	doms := []struct {
		name string
		dom  int
		zipf float64
	}{
		{"age", 10, 0},
		{"workclass", 9, 1.8},
		{"fnlwgt", 10, 0},
		{"education", 16, 1.5},
		{"education_num", 10, 0},
		{"marital_status", 7, 1.6},
		{"occupation", 15, 1.3},
		{"relationship", 6, 1.4},
		{"race", 5, 2.2},
		{"sex", 2, 0},
		{"capital_gain", 10, 2.8},
		{"capital_loss", 10, 2.8},
		{"hours_per_week", 10, 1.2},
		{"native_country", 42, 2.5},
	}
	feats := make([]feature, len(doms))
	for j, d := range doms {
		feats[j] = feature{name: d.name, dom: d.dom, zipf: d.zipf, group: -1}
	}
	// Mild correlation between education and occupation-like columns.
	feats[3].group, feats[3].noise = 0, 0.5
	feats[6].group, feats[6].noise = 0, 0.5
	s := spec{
		name:  "Adult",
		n:     AdultRows,
		feats: feats,
		plants: []plant{
			{preds: map[int]int{9: 2, 3: 1}, rate: 0.55},       // sex=2 AND education=1
			{preds: map[int]int{5: 1, 7: 1}, rate: 0.45},       // marital=1 AND relationship=1
			{preds: map[int]int{0: 3, 12: 1, 9: 1}, rate: 0.6}, // age=3 AND hours=1 AND sex=1
		},
		baseErr: 0.12,
		nGroups: 1,
		task:    "2-class",
	}
	return generate(s, seed)
}

// Covtype reproduces the Covtype shape at reduced scale: 54 features with
// l = 188 (10 numeric features binned to 10 plus 44 binary features), 7-class
// task. The binary soil/wilderness indicators derive from two shared latent
// variables, giving the strong column-group correlations that make Covtype
// hard for exact enumeration (the paper caps ⌈L⌉ at 4).
func Covtype(n int, seed int64) *Generated {
	if n <= 0 {
		n = CovtypeRows
	}
	var feats []feature
	for j := 0; j < 10; j++ {
		feats = append(feats, feature{name: fmt.Sprintf("num%02d", j), dom: 10, group: -1})
	}
	// 4 wilderness-area indicators from latent group 0.
	for j := 0; j < 4; j++ {
		feats = append(feats, feature{name: fmt.Sprintf("wild%d", j), dom: 2, group: 0, noise: 0.25})
	}
	// 40 soil-type indicators from latent group 1.
	for j := 0; j < 40; j++ {
		feats = append(feats, feature{name: fmt.Sprintf("soil%02d", j), dom: 2, group: 1, noise: 0.3})
	}
	s := spec{
		name:  "Covtype",
		n:     n,
		feats: feats,
		plants: []plant{
			{preds: map[int]int{0: 7, 10: 2}, rate: 0.7},
			{preds: map[int]int{2: 1, 3: 1}, rate: 0.6},
		},
		baseErr: 0.08,
		nGroups: 2,
		task:    "7-class",
	}
	return generate(s, seed)
}

// KDD98 reproduces the KDD'98 shape at reduced scale: 469 features with
// domains summing to l ≈ 8,378 (the paper's "many features" dataset with
// thousands of qualifying basic slices), regression task.
func KDD98(n int, seed int64) *Generated {
	if n <= 0 {
		n = KDD98Rows
	}
	var feats []feature
	// 300 numeric features binned into 10 equi-width bins each (l += 3000).
	for j := 0; j < 300; j++ {
		feats = append(feats, feature{name: fmt.Sprintf("num%03d", j), dom: 10, zipf: 1.7, group: -1})
	}
	// 169 categorical features with heavy-tailed domains summing to 5378,
	// so l = 3000 + 5378 = 8378 exactly as in Table 1. Domains cycle
	// through {12, 22, 32, 42, 52} (sum 5340 over 169) with the remainder
	// spread over the first features.
	catDoms := make([]int, 169)
	total := 0
	for j := range catDoms {
		catDoms[j] = 11 + (j%5)*10
		total += catDoms[j]
	}
	for j := 0; total < 5378; j++ {
		catDoms[j%169]++
		total++
	}
	for j, dom := range catDoms {
		feats = append(feats, feature{name: fmt.Sprintf("cat%03d", j), dom: dom, zipf: 1.7, group: -1})
	}
	s := spec{
		name:  "KDD98",
		n:     n,
		feats: feats,
		plants: []plant{
			{preds: map[int]int{0: 2, 300: 1}, rate: 3.0},
			{preds: map[int]int{10: 2, 11: 2}, rate: 2.5},
		},
		baseErr: 0.5,
		nGroups: 1,
		task:    "reg",
	}
	return generate(s, seed)
}

// USCensus reproduces the US Census 1990 shape at reduced scale: 68 features
// with l = 378, 4-class task (the paper derives artificial labels by
// k-means). Several correlated column groups make conjunctions of many
// features retain large support (the paper caps ⌈L⌉ at 3).
func USCensus(n int, seed int64) *Generated {
	if n <= 0 {
		n = USCensusRows
	}
	var feats []feature
	// 68 features with domains summing to 378: 34 of domain 4, 22 of
	// domain 7, 12 of domain 7.33→ use 10 to land exactly:
	// 34*4 + 22*7 + 12*? = 136 + 154 = 290; 12 features of domain 7.33 —
	// choose 8 of domain 8 and 4 of domain 6: 64 + 24 = 88 → 378 total.
	mk := func(count, dom, group int, noise float64, prefix string) {
		for j := 0; j < count; j++ {
			feats = append(feats, feature{
				name: fmt.Sprintf("%s%02d", prefix, len(feats)), dom: dom,
				group: group, noise: noise, zipf: 1.7, skew: 3,
			})
			_ = j
		}
	}
	mk(34, 4, 0, 0.5, "a")
	mk(22, 7, 1, 0.5, "b")
	mk(8, 8, 2, 0.55, "c")
	mk(4, 6, 3, 0.55, "d")
	s := spec{
		name:  "USCensus",
		n:     n,
		feats: feats,
		plants: []plant{
			{preds: map[int]int{0: 2, 34: 3}, rate: 0.55},
			{preds: map[int]int{1: 1, 2: 1, 35: 2}, rate: 0.65},
		},
		baseErr: 0.06,
		nGroups: 4,
		task:    "4-class",
	}
	return generate(s, seed)
}

// Criteo reproduces the CriteoD21 shape at laptop scale: 39 features (13
// integer features binned to 10 bins, 26 categorical features with very
// large heavy-tailed domains), yielding an ultra-sparse one-hot encoding
// with around one million columns of which only a few hundred satisfy the
// minimum support constraint — the Table 2 setting.
func Criteo(n int, seed int64) *Generated {
	if n <= 0 {
		n = CriteoRows
	}
	var feats []feature
	for j := 0; j < 13; j++ {
		feats = append(feats, feature{name: fmt.Sprintf("int%02d", j), dom: 10, group: j % 4, noise: 0.3})
	}
	for j := 0; j < 26; j++ {
		dom := 10000 + (j%6)*12000 // 10k..70k, sum ≈ 0.9M
		f := feature{name: fmt.Sprintf("cat%02d", j), dom: dom, zipf: 1.25, group: -1}
		if j < 13 {
			// Correlated categorical groups with skewed latents: frequent
			// codes co-occur, so conjunctions keep large support and the
			// number of valid slices grows with the lattice level (the
			// Table 2 behaviour that hinders early termination).
			f.group = j % 4
			f.noise = 0.25
			f.skew = 25
		}
		feats = append(feats, f)
	}
	s := spec{
		name:  "CriteoD21",
		n:     n,
		feats: feats,
		plants: []plant{
			{preds: map[int]int{0: 3, 13: 1}, rate: 0.5},
			{preds: map[int]int{1: 1, 14: 1}, rate: 0.45},
		},
		baseErr: 0.1,
		nGroups: 4,
		task:    "2-class",
	}
	return generate(s, seed)
}
