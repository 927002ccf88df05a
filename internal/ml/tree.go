package ml

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"sort"
)

// TreeNode is one node of a regression tree in a flat array layout (cache
// friendly scoring: children referenced by index).
type TreeNode struct {
	Feature   int32   // split feature; -1 for leaves
	Threshold float32 // go left when x[Feature] <= Threshold
	Left      int32
	Right     int32
	Value     float32 // leaf prediction
}

// Tree is a trained CART regression tree.
type Tree struct {
	Nodes  []TreeNode
	Leaves int32 // number of leaves (used by the tree featurizer)
}

// Predict returns the tree's prediction for x.
func (t *Tree) Predict(x []float32) float32 {
	i := int32(0)
	for {
		n := &t.Nodes[i]
		if n.Feature < 0 {
			return n.Value
		}
		if int(n.Feature) < len(x) && x[n.Feature] <= n.Threshold {
			i = n.Left
		} else {
			i = n.Right
		}
	}
}

// LeafIndex returns the ordinal of the leaf x falls into (0..Leaves-1).
func (t *Tree) LeafIndex(x []float32) int32 {
	i := int32(0)
	for {
		n := &t.Nodes[i]
		if n.Feature < 0 {
			return int32(n.Left) // leaf ordinal stored in Left
		}
		if int(n.Feature) < len(x) && x[n.Feature] <= n.Threshold {
			i = n.Left
		} else {
			i = n.Right
		}
	}
}

// TreeOptions control CART training.
type TreeOptions struct {
	MaxDepth    int
	MinLeaf     int
	FeatureFrac float64 // fraction of features considered per split (forests)
	Seed        int64
}

func (o *TreeOptions) defaults() {
	if o.MaxDepth <= 0 {
		o.MaxDepth = 6
	}
	if o.MinLeaf <= 0 {
		o.MinLeaf = 4
	}
	if o.FeatureFrac <= 0 || o.FeatureFrac > 1 {
		o.FeatureFrac = 1
	}
}

// TrainTree fits a regression tree on dense samples by variance-reduction
// CART with exact split search over sorted feature values.
func TrainTree(xs [][]float32, ys []float32, opt TreeOptions) (*Tree, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return nil, fmt.Errorf("ml: TrainTree needs matching non-empty xs/ys (%d/%d)", len(xs), len(ys))
	}
	opt.defaults()
	dim := len(xs[0])
	rng := rand.New(rand.NewSource(opt.Seed + 7))
	t := &Tree{}
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	var build func(rows []int, depth int) int32
	build = func(rows []int, depth int) int32 {
		mean, varSum := meanVar(ys, rows)
		nodeID := int32(len(t.Nodes))
		if depth >= opt.MaxDepth || len(rows) < 2*opt.MinLeaf || varSum < 1e-7 {
			leaf := TreeNode{Feature: -1, Value: mean, Left: t.Leaves}
			t.Leaves++
			t.Nodes = append(t.Nodes, leaf)
			return nodeID
		}
		feat, thr, ok := bestSplit(xs, ys, rows, dim, opt, rng)
		if !ok {
			leaf := TreeNode{Feature: -1, Value: mean, Left: t.Leaves}
			t.Leaves++
			t.Nodes = append(t.Nodes, leaf)
			return nodeID
		}
		// Partition rows in place.
		left := make([]int, 0, len(rows)/2)
		right := make([]int, 0, len(rows)/2)
		for _, r := range rows {
			if xs[r][feat] <= thr {
				left = append(left, r)
			} else {
				right = append(right, r)
			}
		}
		if len(left) < opt.MinLeaf || len(right) < opt.MinLeaf {
			leaf := TreeNode{Feature: -1, Value: mean, Left: t.Leaves}
			t.Leaves++
			t.Nodes = append(t.Nodes, leaf)
			return nodeID
		}
		t.Nodes = append(t.Nodes, TreeNode{Feature: int32(feat), Threshold: thr})
		l := build(left, depth+1)
		r := build(right, depth+1)
		t.Nodes[nodeID].Left = l
		t.Nodes[nodeID].Right = r
		return nodeID
	}
	build(idx, 0)
	return t, nil
}

func meanVar(ys []float32, rows []int) (mean float32, varSum float32) {
	if len(rows) == 0 {
		return 0, 0
	}
	var s float64
	for _, r := range rows {
		s += float64(ys[r])
	}
	m := s / float64(len(rows))
	var v float64
	for _, r := range rows {
		d := float64(ys[r]) - m
		v += d * d
	}
	return float32(m), float32(v)
}

// bestSplit finds the variance-minimizing (feature, threshold) over a
// random subset of features.
func bestSplit(xs [][]float32, ys []float32, rows []int, dim int, opt TreeOptions, rng *rand.Rand) (int, float32, bool) {
	nFeat := int(math.Ceil(opt.FeatureFrac * float64(dim)))
	feats := rng.Perm(dim)[:nFeat]
	type fv struct {
		x float32
		y float32
	}
	vals := make([]fv, 0, len(rows))
	bestGain := float32(-1)
	bestFeat, bestThr := -1, float32(0)
	_, totalVar := meanVar(ys, rows)
	for _, f := range feats {
		vals = vals[:0]
		for _, r := range rows {
			vals = append(vals, fv{xs[r][f], ys[r]})
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i].x < vals[j].x })
		// Prefix sums to evaluate every split point in O(n).
		var sumL, sqL float64
		var sumR, sqR float64
		for _, v := range vals {
			sumR += float64(v.y)
			sqR += float64(v.y) * float64(v.y)
		}
		n := len(vals)
		for i := 0; i < n-1; i++ {
			y := float64(vals[i].y)
			sumL += y
			sqL += y * y
			sumR -= y
			sqR -= y * y
			if vals[i].x == vals[i+1].x {
				continue
			}
			nl, nr := float64(i+1), float64(n-i-1)
			if int(nl) < opt.MinLeaf || int(nr) < opt.MinLeaf {
				continue
			}
			varL := sqL - sumL*sumL/nl
			varR := sqR - sumR*sumR/nr
			gain := totalVar - float32(varL+varR)
			if gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThr = (vals[i].x + vals[i+1].x) / 2
			}
		}
	}
	if bestFeat < 0 || bestGain <= 0 {
		return 0, 0, false
	}
	return bestFeat, bestThr, true
}

// Forest is an averaged ensemble of regression trees (bagging).
type Forest struct {
	Trees []*Tree
}

// ForestOptions control forest training.
type ForestOptions struct {
	NumTrees int
	Tree     TreeOptions
	Seed     int64
}

// TrainForest fits a bagged forest.
func TrainForest(xs [][]float32, ys []float32, opt ForestOptions) (*Forest, error) {
	if opt.NumTrees <= 0 {
		opt.NumTrees = 8
	}
	if opt.Tree.FeatureFrac <= 0 {
		opt.Tree.FeatureFrac = 0.7
	}
	rng := rand.New(rand.NewSource(opt.Seed + 13))
	f := &Forest{}
	for k := 0; k < opt.NumTrees; k++ {
		// Bootstrap sample.
		bx := make([][]float32, len(xs))
		by := make([]float32, len(ys))
		for i := range bx {
			j := rng.Intn(len(xs))
			bx[i] = xs[j]
			by[i] = ys[j]
		}
		topt := opt.Tree
		topt.Seed = opt.Seed + int64(k)*101
		t, err := TrainTree(bx, by, topt)
		if err != nil {
			return nil, err
		}
		f.Trees = append(f.Trees, t)
	}
	return f, nil
}

// Predict returns the forest's averaged prediction.
func (f *Forest) Predict(x []float32) float32 {
	if len(f.Trees) == 0 {
		return 0
	}
	var s float32
	for _, t := range f.Trees {
		s += t.Predict(x)
	}
	return s / float32(len(f.Trees))
}

// TotalLeaves returns the leaf count across all trees.
func (f *Forest) TotalLeaves() int {
	n := 0
	for _, t := range f.Trees {
		n += int(t.Leaves)
	}
	return n
}

// Checksum hashes the forest parameters.
func (f *Forest) Checksum() uint64 {
	h := fnv.New64a()
	var b [16]byte
	for _, t := range f.Trees {
		for _, n := range t.Nodes {
			binary.LittleEndian.PutUint32(b[0:], uint32(n.Feature))
			binary.LittleEndian.PutUint32(b[4:], math.Float32bits(n.Threshold))
			binary.LittleEndian.PutUint32(b[8:], uint32(n.Left)^uint32(n.Right)<<1)
			binary.LittleEndian.PutUint32(b[12:], math.Float32bits(n.Value))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// MemBytes estimates retained heap bytes of the forest.
func (f *Forest) MemBytes() int {
	n := 24
	for _, t := range f.Trees {
		n += 32 + 20*cap(t.Nodes)
	}
	return n
}

// WriteContent implements ops.Param: the canonical serialized bytes the
// Object Store's content address is computed over.
func (f *Forest) WriteContent(w io.Writer) error {
	_, err := f.WriteTo(w)
	return err
}

// WriteTo serializes the forest.
func (f *Forest) WriteTo(w io.Writer) (int64, error) {
	var n int64
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(len(f.Trees)))
	k, err := w.Write(cnt[:])
	n += int64(k)
	if err != nil {
		return n, err
	}
	for _, t := range f.Trees {
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:], uint32(len(t.Nodes)))
		binary.LittleEndian.PutUint32(hdr[4:], uint32(t.Leaves))
		k, err = w.Write(hdr[:])
		n += int64(k)
		if err != nil {
			return n, err
		}
		buf := make([]byte, 20*len(t.Nodes))
		for i, nd := range t.Nodes {
			binary.LittleEndian.PutUint32(buf[20*i+0:], uint32(nd.Feature))
			binary.LittleEndian.PutUint32(buf[20*i+4:], math.Float32bits(nd.Threshold))
			binary.LittleEndian.PutUint32(buf[20*i+8:], uint32(nd.Left))
			binary.LittleEndian.PutUint32(buf[20*i+12:], uint32(nd.Right))
			binary.LittleEndian.PutUint32(buf[20*i+16:], math.Float32bits(nd.Value))
		}
		k, err = w.Write(buf)
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// validate checks a decoded tree's links so scoring always terminates
// in bounds: every split node's children lie strictly after it (the
// trainer writes nodes pre-order, so a path only moves forward and no
// cycle can form) and every leaf's ordinal indexes [0, Leaves).
func (t *Tree) validate() error {
	nn := int32(len(t.Nodes))
	for i, n := range t.Nodes {
		if n.Feature < 0 {
			if n.Left < 0 || n.Left >= t.Leaves {
				return fmt.Errorf("leaf %d ordinal %d outside [0, %d)", i, n.Left, t.Leaves)
			}
			continue
		}
		if n.Left <= int32(i) || n.Left >= nn || n.Right <= int32(i) || n.Right >= nn {
			return fmt.Errorf("split node %d children (%d, %d) outside (%d, %d)", i, n.Left, n.Right, i, nn)
		}
	}
	return nil
}

// ReadForest deserializes a forest written by WriteTo, rejecting trees
// whose node links could make scoring loop or index out of range.
func ReadForest(r io.Reader) (*Forest, error) {
	var cnt [4]byte
	if _, err := io.ReadFull(r, cnt[:]); err != nil {
		return nil, fmt.Errorf("ml: forest header: %w", err)
	}
	nt := binary.LittleEndian.Uint32(cnt[:])
	if nt > 1<<16 {
		return nil, fmt.Errorf("ml: implausible tree count %d", nt)
	}
	f := &Forest{}
	for ti := uint32(0); ti < nt; ti++ {
		var hdr [8]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil, fmt.Errorf("ml: tree %d header: %w", ti, err)
		}
		nn := binary.LittleEndian.Uint32(hdr[0:])
		if nn == 0 || nn > 1<<24 {
			return nil, fmt.Errorf("ml: tree %d: implausible node count %d", ti, nn)
		}
		t := &Tree{Leaves: int32(binary.LittleEndian.Uint32(hdr[4:]))}
		buf := make([]byte, 20*nn)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("ml: tree %d nodes: %w", ti, err)
		}
		t.Nodes = make([]TreeNode, nn)
		for i := range t.Nodes {
			t.Nodes[i] = TreeNode{
				Feature:   int32(binary.LittleEndian.Uint32(buf[20*i+0:])),
				Threshold: math.Float32frombits(binary.LittleEndian.Uint32(buf[20*i+4:])),
				Left:      int32(binary.LittleEndian.Uint32(buf[20*i+8:])),
				Right:     int32(binary.LittleEndian.Uint32(buf[20*i+12:])),
				Value:     math.Float32frombits(binary.LittleEndian.Uint32(buf[20*i+16:])),
			}
		}
		if err := t.validate(); err != nil {
			return nil, fmt.Errorf("ml: tree %d: %w", ti, err)
		}
		f.Trees = append(f.Trees, t)
	}
	return f, nil
}
