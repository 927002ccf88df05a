package ml

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// --- linear models ---

func denseSamples(n, dim int, seed int64, f func(x []float32) float32) []Sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Sample, n)
	for i := range out {
		x := make([]float32, dim)
		for j := range x {
			x[j] = float32(rng.NormFloat64())
		}
		out[i] = Sample{Dense: x, Label: f(x)}
	}
	return out
}

func TestTrainLinearRegression(t *testing.T) {
	truth := func(x []float32) float32 { return 2*x[0] - 3*x[1] + 0.5 }
	samples := denseSamples(2000, 4, 1, truth)
	m, err := TrainLinear(samples, LinearOptions{Kind: LinearRegression, Dim: 4, Epochs: 20, LearnRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(m.Weights[0]-2)) > 0.15 || math.Abs(float64(m.Weights[1]+3)) > 0.15 {
		t.Fatalf("weights off: %v", m.Weights)
	}
	if math.Abs(float64(m.Bias-0.5)) > 0.15 {
		t.Fatalf("bias off: %v", m.Bias)
	}
}

func TestTrainLogisticRegression(t *testing.T) {
	truth := func(x []float32) float32 {
		if x[0]+x[1] > 0 {
			return 1
		}
		return 0
	}
	samples := denseSamples(2000, 3, 2, truth)
	m, err := TrainLinear(samples, LinearOptions{Kind: LogisticRegression, Dim: 3, Epochs: 10, LearnRate: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	test := denseSamples(500, 3, 99, truth)
	for _, s := range test {
		p := m.Score(s.Dense)
		if (p > 0.5) == (s.Label == 1) {
			correct++
		}
	}
	if acc := float64(correct) / 500; acc < 0.9 {
		t.Fatalf("logistic accuracy %.3f < 0.9", acc)
	}
}

func TestTrainLogisticSparse(t *testing.T) {
	// Sparse features: label = presence of feature 0.
	rng := rand.New(rand.NewSource(3))
	var samples []Sample
	for i := 0; i < 1000; i++ {
		var idx []int32
		var val []float32
		label := float32(0)
		if rng.Intn(2) == 0 {
			idx = append(idx, 0)
			val = append(val, 1)
			label = 1
		}
		idx = append(idx, int32(1+rng.Intn(9)))
		val = append(val, 1)
		samples = append(samples, Sample{Idx: idx, Val: val, Label: label})
	}
	m, err := TrainLinear(samples, LinearOptions{Kind: LogisticRegression, Dim: 10, Epochs: 10, LearnRate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if p := m.ScoreSparse([]int32{0}, []float32{1}); p < 0.7 {
		t.Fatalf("P(y|f0)=%v too low", p)
	}
	if p := m.ScoreSparse([]int32{5}, []float32{1}); p > 0.4 {
		t.Fatalf("P(y|f5)=%v too high", p)
	}
}

func TestTrainPoisson(t *testing.T) {
	truth := func(x []float32) float32 {
		lam := math.Exp(float64(0.5*x[0]) + 1)
		return float32(lam)
	}
	samples := denseSamples(3000, 2, 4, truth)
	m, err := TrainLinear(samples, LinearOptions{Kind: PoissonRegression, Dim: 2, Epochs: 30, LearnRate: 0.01, ClampLabel: 100})
	if err != nil {
		t.Fatal(err)
	}
	// exp link: prediction at x0=1 should exceed prediction at x0=-1.
	hi := m.Score([]float32{1, 0})
	lo := m.Score([]float32{-1, 0})
	if hi <= lo {
		t.Fatalf("poisson monotonicity: hi=%v lo=%v", hi, lo)
	}
	if hi <= 0 || lo <= 0 {
		t.Fatal("poisson predictions must be positive")
	}
}

func TestTrainLinearErrors(t *testing.T) {
	if _, err := TrainLinear(nil, LinearOptions{Dim: 0}); err == nil {
		t.Fatal("Dim=0 must error")
	}
}

func TestLinearKindString(t *testing.T) {
	if LinearRegression.String() != "linear" || LogisticRegression.String() != "logistic" ||
		PoissonRegression.String() != "poisson" || LinearKind(9).String() != "unknown" {
		t.Fatal("kind strings")
	}
}

func TestLinearRoundTrip(t *testing.T) {
	m := &LinearModel{Kind: LogisticRegression, Bias: 0.25, Weights: []float32{1, -2, 3.5}}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLinearModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != m.Kind || got.Bias != m.Bias || len(got.Weights) != 3 || got.Weights[2] != 3.5 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.Checksum() != m.Checksum() {
		t.Fatal("checksum changed")
	}
	if _, err := ReadLinearModel(bytes.NewReader([]byte{9, 0, 0, 0, 0, 0, 0, 0, 0})); err == nil {
		t.Fatal("bad kind must error")
	}
	if _, err := ReadLinearModel(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty must error")
	}
}

func TestLinearChecksumSensitivity(t *testing.T) {
	a := &LinearModel{Weights: []float32{1, 2}}
	b := &LinearModel{Weights: []float32{1, 2.0001}}
	if a.Checksum() == b.Checksum() {
		t.Fatal("checksum insensitive to weights")
	}
	c := &LinearModel{Weights: []float32{1, 2}, Kind: LogisticRegression}
	if a.Checksum() == c.Checksum() {
		t.Fatal("checksum insensitive to kind")
	}
	if a.MemBytes() <= 0 {
		t.Fatal("membytes")
	}
}

// --- trees ---

func denseXY(n, dim int, seed int64, f func(x []float32) float32) ([][]float32, []float32) {
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float32, n)
	ys := make([]float32, n)
	for i := range xs {
		x := make([]float32, dim)
		for j := range x {
			x[j] = float32(rng.NormFloat64())
		}
		xs[i] = x
		ys[i] = f(x)
	}
	return xs, ys
}

func TestTrainTreeLearnsStep(t *testing.T) {
	f := func(x []float32) float32 {
		if x[0] > 0.3 {
			return 10
		}
		return -10
	}
	xs, ys := denseXY(500, 3, 5, f)
	tree, err := TrainTree(xs, ys, TreeOptions{MaxDepth: 3, MinLeaf: 5})
	if err != nil {
		t.Fatal(err)
	}
	if p := tree.Predict([]float32{1, 0, 0}); p < 5 {
		t.Fatalf("right side pred %v", p)
	}
	if p := tree.Predict([]float32{-1, 0, 0}); p > -5 {
		t.Fatalf("left side pred %v", p)
	}
	if tree.Leaves < 2 {
		t.Fatalf("leaves=%d", tree.Leaves)
	}
}

func TestTreeLeafIndexRange(t *testing.T) {
	f := func(x []float32) float32 { return x[0]*x[1] + x[2] }
	xs, ys := denseXY(400, 4, 6, f)
	tree, err := TrainTree(xs, ys, TreeOptions{MaxDepth: 5, MinLeaf: 3})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int32]bool{}
	for _, x := range xs {
		li := tree.LeafIndex(x)
		if li < 0 || li >= tree.Leaves {
			t.Fatalf("leaf index %d out of [0,%d)", li, tree.Leaves)
		}
		seen[li] = true
	}
	if len(seen) < 2 {
		t.Fatal("all inputs landed in one leaf")
	}
}

func TestTrainTreeErrors(t *testing.T) {
	if _, err := TrainTree(nil, nil, TreeOptions{}); err == nil {
		t.Fatal("empty input must error")
	}
	if _, err := TrainTree([][]float32{{1}}, []float32{1, 2}, TreeOptions{}); err == nil {
		t.Fatal("length mismatch must error")
	}
}

func TestTreeConstantLabels(t *testing.T) {
	xs, _ := denseXY(50, 2, 7, func([]float32) float32 { return 0 })
	ys := make([]float32, 50)
	for i := range ys {
		ys[i] = 3
	}
	tree, err := TrainTree(xs, ys, TreeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Nodes) != 1 || tree.Predict(xs[0]) != 3 {
		t.Fatalf("constant labels should give single leaf with value 3: %+v", tree.Nodes)
	}
}

func TestForest(t *testing.T) {
	f := func(x []float32) float32 { return 3*x[0] + x[1]*x[1] }
	xs, ys := denseXY(600, 4, 8, f)
	forest, err := TrainForest(xs, ys, ForestOptions{NumTrees: 5, Tree: TreeOptions{MaxDepth: 6, MinLeaf: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(forest.Trees) != 5 {
		t.Fatalf("trees=%d", len(forest.Trees))
	}
	// In-sample fit should be decent: correlation of sign at least.
	var se, sv float64
	for i, x := range xs {
		d := float64(forest.Predict(x) - ys[i])
		se += d * d
		sv += float64(ys[i]) * float64(ys[i])
	}
	if se >= sv {
		t.Fatalf("forest no better than zero predictor: se=%v sv=%v", se, sv)
	}
	if forest.TotalLeaves() <= 0 {
		t.Fatal("total leaves")
	}
	var empty Forest
	if empty.Predict(xs[0]) != 0 {
		t.Fatal("empty forest should predict 0")
	}
}

func TestForestRoundTrip(t *testing.T) {
	xs, ys := denseXY(200, 3, 9, func(x []float32) float32 { return x[0] })
	forest, err := TrainForest(xs, ys, ForestOptions{NumTrees: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := forest.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadForest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Checksum() != forest.Checksum() {
		t.Fatal("checksum changed over round trip")
	}
	for i := 0; i < 20; i++ {
		if got.Predict(xs[i]) != forest.Predict(xs[i]) {
			t.Fatal("prediction changed over round trip")
		}
	}
	if _, err := ReadForest(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty forest read must error")
	}
}

// TestReadForestRejectsMalformedTrees: decode-time validation refuses
// every tree whose links could make scoring loop forever or index out
// of range, and still accepts every trained forest.
func TestReadForestRejectsMalformedTrees(t *testing.T) {
	leaf := func(ord int32) TreeNode { return TreeNode{Feature: -1, Left: ord} }
	split := func(l, r int32) TreeNode { return TreeNode{Feature: 0, Left: l, Right: r} }
	for _, tc := range []struct {
		name string
		tree Tree
	}{
		{"no nodes", Tree{}},
		{"root children point at root", Tree{Nodes: []TreeNode{split(0, 0)}, Leaves: 1}},
		{"child points backward", Tree{Nodes: []TreeNode{split(1, 2), split(0, 2), leaf(0)}, Leaves: 1}},
		{"child past the end", Tree{Nodes: []TreeNode{split(1, 3), leaf(0), leaf(1)}, Leaves: 2}},
		{"negative child", Tree{Nodes: []TreeNode{split(1, -1), leaf(0)}, Leaves: 1}},
		{"leaf ordinal past Leaves", Tree{Nodes: []TreeNode{split(1, 2), leaf(0), leaf(2)}, Leaves: 2}},
		{"negative leaf ordinal", Tree{Nodes: []TreeNode{leaf(-1)}, Leaves: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			tree := tc.tree
			if _, err := (&Forest{Trees: []*Tree{&tree}}).WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			if f, err := ReadForest(&buf); err == nil {
				t.Fatalf("malformed tree decoded: %+v", f.Trees[0])
			}
		})
	}
	// A hand-built valid tree and deep trained forests still decode.
	var buf bytes.Buffer
	ok := &Forest{Trees: []*Tree{{Nodes: []TreeNode{split(1, 2), leaf(0), leaf(1)}, Leaves: 2}}}
	if _, err := ok.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadForest(&buf); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
	xs, ys := denseXY(400, 4, 11, func(x []float32) float32 { return x[0]*x[1] - x[2] })
	forest, err := TrainForest(xs, ys, ForestOptions{NumTrees: 5, Tree: TreeOptions{MaxDepth: 8, MinLeaf: 2}})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if _, err := forest.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadForest(&buf)
	if err != nil {
		t.Fatalf("trained forest rejected: %v", err)
	}
	if got.Checksum() != forest.Checksum() {
		t.Fatal("checksum changed over round trip")
	}
}

// --- kmeans ---

func TestKMeansSeparatesClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	var xs [][]float32
	for i := 0; i < 200; i++ {
		c := float32(0)
		if i%2 == 0 {
			c = 10
		}
		xs = append(xs, []float32{c + float32(rng.NormFloat64())*0.3, c + float32(rng.NormFloat64())*0.3})
	}
	km, err := TrainKMeans(xs, KMeansOptions{K: 2, MaxIters: 20})
	if err != nil {
		t.Fatal(err)
	}
	a := km.Assign([]float32{0, 0})
	b := km.Assign([]float32{10, 10})
	if a == b {
		t.Fatal("clusters not separated")
	}
	out := make([]float32, 2)
	d := km.Distances([]float32{0, 0}, out)
	if d[a] >= d[b] {
		t.Fatal("distance ordering wrong")
	}
}

func TestKMeansSparseDistancesMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var xs [][]float32
	for i := 0; i < 100; i++ {
		x := make([]float32, 8)
		for j := range x {
			if rng.Intn(2) == 0 {
				x[j] = rng.Float32()
			}
		}
		xs = append(xs, x)
	}
	km, err := TrainKMeans(xs, KMeansOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	x := xs[7]
	var idx []int32
	var val []float32
	for j, v := range x {
		if v != 0 {
			idx = append(idx, int32(j))
			val = append(val, v)
		}
	}
	dd := km.Distances(x, make([]float32, 3))
	ds := km.DistancesSparse(idx, val, make([]float32, 3))
	for c := range dd {
		if math.Abs(float64(dd[c]-ds[c])) > 1e-3 {
			t.Fatalf("centroid %d: dense %v sparse %v", c, dd[c], ds[c])
		}
	}
}

func TestKMeansRoundTripAndErrors(t *testing.T) {
	xs := [][]float32{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
	km, err := TrainKMeans(xs, KMeansOptions{K: 10}) // clamped to len(xs)
	if err != nil {
		t.Fatal(err)
	}
	if km.K != 4 {
		t.Fatalf("K clamp: %d", km.K)
	}
	var buf bytes.Buffer
	if _, err := km.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadKMeans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Checksum() != km.Checksum() {
		t.Fatal("checksum round trip")
	}
	if _, err := TrainKMeans(nil, KMeansOptions{}); err == nil {
		t.Fatal("empty must error")
	}
	if _, err := ReadKMeans(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty read must error")
	}
	if km.MemBytes() <= 0 {
		t.Fatal("membytes")
	}
}

// --- pca ---

func TestPCAFindsDominantDirection(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var xs [][]float32
	for i := 0; i < 300; i++ {
		// Variance dominated by direction (1,1,0)/sqrt(2).
		a := float32(rng.NormFloat64()) * 5
		b := float32(rng.NormFloat64()) * 0.3
		xs = append(xs, []float32{a + b, a - b, float32(rng.NormFloat64()) * 0.1})
	}
	p, err := TrainPCA(xs, PCAOptions{K: 2, Iters: 50})
	if err != nil {
		t.Fatal(err)
	}
	c0 := p.Components[:3]
	// First component should align with (1,1,0)/sqrt(2) up to sign.
	dot := math.Abs(float64(c0[0])*0.7071 + float64(c0[1])*0.7071)
	if dot < 0.98 {
		t.Fatalf("first component misaligned: %v (|cos|=%v)", c0, dot)
	}
	// Components should be near-orthonormal.
	c1 := p.Components[3:6]
	ortho := math.Abs(float64(c0[0]*c1[0] + c0[1]*c1[1] + c0[2]*c1[2]))
	if ortho > 0.05 {
		t.Fatalf("components not orthogonal: %v", ortho)
	}
}

func TestPCAProjectCentersData(t *testing.T) {
	xs := [][]float32{{1, 2}, {3, 4}, {5, 6}}
	p, err := TrainPCA(xs, PCAOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float32, 1)
	var sum float64
	for _, x := range xs {
		sum += float64(p.Project(x, out)[0])
	}
	if math.Abs(sum) > 1e-3 {
		t.Fatalf("projections not centered: sum=%v", sum)
	}
}

func TestPCARoundTripAndErrors(t *testing.T) {
	xs, _ := denseXY(50, 4, 15, func(x []float32) float32 { return 0 })
	p, err := TrainPCA(xs, PCAOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPCA(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Checksum() != p.Checksum() {
		t.Fatal("checksum round trip")
	}
	out1 := make([]float32, 2)
	out2 := make([]float32, 2)
	p.Project(xs[0], out1)
	got.Project(xs[0], out2)
	if out1[0] != out2[0] || out1[1] != out2[1] {
		t.Fatal("projection changed over round trip")
	}
	if _, err := TrainPCA(nil, PCAOptions{}); err == nil {
		t.Fatal("empty must error")
	}
	if _, err := ReadPCA(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty read must error")
	}
	if p.MemBytes() <= 0 {
		t.Fatal("membytes")
	}
}

// --- tree featurizer + multiclass ---

func TestTreeFeaturizer(t *testing.T) {
	xs, ys := denseXY(300, 3, 16, func(x []float32) float32 { return x[0] + x[1] })
	forest, err := TrainForest(xs, ys, ForestOptions{NumTrees: 4, Tree: TreeOptions{MaxDepth: 4}})
	if err != nil {
		t.Fatal(err)
	}
	tf := NewTreeFeaturizer(forest)
	if tf.Dim() != forest.TotalLeaves() {
		t.Fatal("dim mismatch")
	}
	var idx []int32
	tf.Featurize(xs[0], func(i int32, v float32) {
		if v != 1 {
			t.Fatalf("one-hot value %v", v)
		}
		idx = append(idx, i)
	})
	if len(idx) != 4 {
		t.Fatalf("expected one leaf per tree, got %d", len(idx))
	}
	for i := 1; i < len(idx); i++ {
		if idx[i] <= idx[i-1] {
			t.Fatal("leaf indices must be strictly increasing across tree blocks")
		}
	}
	if int(idx[len(idx)-1]) >= tf.Dim() {
		t.Fatal("leaf index out of range")
	}
	if tf.Checksum() == forest.Checksum() {
		t.Fatal("featurizer checksum must differ from raw forest")
	}
	if tf.MemBytes() <= forest.MemBytes() {
		t.Fatal("membytes")
	}
}

func TestMultiClassForest(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var xs [][]float32
	var ys []int
	for i := 0; i < 600; i++ {
		c := i % 3
		x := []float32{float32(c)*3 + float32(rng.NormFloat64())*0.5, float32(rng.NormFloat64())}
		xs = append(xs, x)
		ys = append(ys, c)
	}
	mc, err := TrainMultiClassForest(xs, ys, MultiClassOptions{NumClasses: 3, Forest: ForestOptions{NumTrees: 4, Tree: TreeOptions{MaxDepth: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	if mc.NumClasses() != 3 {
		t.Fatal("classes")
	}
	correct := 0
	for i, x := range xs {
		if mc.Predict(x) == ys[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(xs)); acc < 0.85 {
		t.Fatalf("multiclass accuracy %.3f", acc)
	}
	scores := mc.Scores(xs[0], make([]float32, 3))
	var sum float32
	for _, s := range scores {
		sum += s
	}
	if math.Abs(float64(sum)-1) > 1e-4 {
		t.Fatalf("scores not a distribution: %v", scores)
	}
}

func TestMultiClassRoundTripAndErrors(t *testing.T) {
	xs, _ := denseXY(100, 2, 18, func(x []float32) float32 { return 0 })
	ys := make([]int, 100)
	for i := range ys {
		ys[i] = i % 2
	}
	mc, err := TrainMultiClassForest(xs, ys, MultiClassOptions{NumClasses: 2, Forest: ForestOptions{NumTrees: 2}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := mc.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMultiClassForest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Checksum() != mc.Checksum() {
		t.Fatal("checksum round trip")
	}
	if _, err := TrainMultiClassForest(xs, ys, MultiClassOptions{NumClasses: 1}); err == nil {
		t.Fatal("1 class must error")
	}
	if _, err := ReadMultiClassForest(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty read must error")
	}
	if mc.MemBytes() <= 0 {
		t.Fatal("membytes")
	}
}

func BenchmarkLinearScoreSparse(b *testing.B) {
	m := &LinearModel{Kind: LogisticRegression, Weights: make([]float32, 1<<16)}
	idx := make([]int32, 100)
	val := make([]float32, 100)
	for i := range idx {
		idx[i] = int32(i * 13)
		val[i] = 1
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.ScoreSparse(idx, val)
	}
}

func BenchmarkForestPredict(b *testing.B) {
	xs, ys := denseXY(500, 10, 20, func(x []float32) float32 { return x[0] })
	forest, _ := TrainForest(xs, ys, ForestOptions{NumTrees: 8, Tree: TreeOptions{MaxDepth: 6}})
	x := xs[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = forest.Predict(x)
	}
}
