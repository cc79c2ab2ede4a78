// Package ccindex implements the index structures the paper's §7 compares:
// a classical B+-tree (pointer-chasing into slotted-page-style nodes, the
// "traditional fast record lookup" of §3), read-only Cache-Sensitive Search
// trees (CSS-trees [31]: no internal pointers, nodes sized to cache lines,
// children found arithmetically), and CSB+-trees [32] (children of a node
// stored contiguously so only the first-child pointer is kept). Plain
// binary search over the sorted array is the no-index baseline.
package ccindex

import "sort"

// BTree is a classical B+-tree mapping int64 keys to int64 values.
// Duplicate keys are not supported (last insert wins).
type BTree struct {
	fanout int
	root   *btNode
	size   int
}

type btNode struct {
	leaf     bool
	keys     []int64
	vals     []int64   // leaves only
	children []*btNode // internal only; len = len(keys)+1
	next     *btNode   // leaf chaining for range scans
}

// NewBTree returns an empty B+-tree with the given fanout (max keys per
// node, >= 3).
func NewBTree(fanout int) *BTree {
	if fanout < 3 {
		fanout = 3
	}
	return &BTree{fanout: fanout, root: &btNode{leaf: true}}
}

// Len returns the number of keys stored.
func (t *BTree) Len() int { return t.size }

// Insert adds or replaces a key.
func (t *BTree) Insert(k, v int64) {
	mid, right := t.insert(t.root, k, v)
	if right != nil {
		t.root = &btNode{keys: []int64{mid}, children: []*btNode{t.root, right}}
	}
}

// insert returns a (separator, newRight) pair when the child split.
func (t *BTree) insert(n *btNode, k, v int64) (int64, *btNode) {
	if n.leaf {
		i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= k })
		if i < len(n.keys) && n.keys[i] == k {
			n.vals[i] = v
			return 0, nil
		}
		n.keys = append(n.keys, 0)
		n.vals = append(n.vals, 0)
		copy(n.keys[i+1:], n.keys[i:])
		copy(n.vals[i+1:], n.vals[i:])
		n.keys[i], n.vals[i] = k, v
		t.size++
		if len(n.keys) <= t.fanout {
			return 0, nil
		}
		h := len(n.keys) / 2
		right := &btNode{leaf: true,
			keys: append([]int64(nil), n.keys[h:]...),
			vals: append([]int64(nil), n.vals[h:]...),
			next: n.next,
		}
		n.keys = n.keys[:h]
		n.vals = n.vals[:h]
		n.next = right
		return right.keys[0], right
	}
	i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] > k })
	mid, right := t.insert(n.children[i], k, v)
	if right == nil {
		return 0, nil
	}
	n.keys = append(n.keys, 0)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = mid
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
	if len(n.keys) <= t.fanout {
		return 0, nil
	}
	h := len(n.keys) / 2
	sep := n.keys[h]
	rn := &btNode{
		keys:     append([]int64(nil), n.keys[h+1:]...),
		children: append([]*btNode(nil), n.children[h+1:]...),
	}
	n.keys = n.keys[:h]
	n.children = n.children[:h+1]
	return sep, rn
}

// Get returns the value for k.
func (t *BTree) Get(k int64) (int64, bool) {
	n := t.root
	for !n.leaf {
		i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] > k })
		n = n.children[i]
	}
	i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= k })
	if i < len(n.keys) && n.keys[i] == k {
		return n.vals[i], true
	}
	return 0, false
}

// scan calls f for every key in [lo,hi) in ascending order; f returning
// false stops the scan.
func (t *BTree) scan(lo, hi int64, f func(k, v int64) bool) {
	n := t.root
	for !n.leaf {
		i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] > lo })
		n = n.children[i]
	}
	for n != nil {
		for i, k := range n.keys {
			if k < lo {
				continue
			}
			if k >= hi {
				return
			}
			if !f(k, n.vals[i]) {
				return
			}
		}
		n = n.next
	}
}

// depth returns the tree height (1 = just a leaf).
func (t *BTree) depth() int {
	d := 1
	for n := t.root; !n.leaf; n = n.children[0] {
		d++
	}
	return d
}
