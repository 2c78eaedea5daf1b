package lintnoalloc

import "fmt"

//fairnn:noalloc
func bad(b *buf, x int32) string {
	s := fmt.Sprintf("%d", x)    // want "not on the allocation-free stdlib allowlist" "boxes a non-pointer value"
	m := map[int32]bool{x: true} // want "map literal"
	_ = m
	f := func() int32 { return x } // want "closure literal"
	_ = f
	b.scratch = append(b.out, x) // want "does not write back to its source"
	cold(b)                      // want "not annotated //fairnn:noalloc"
	go step(b, x)                // want "go statement"
	return s + "!"               // want "string concatenation"
}

//fairnn:noalloc
func fresh() *buf {
	return &buf{} // want "composite literal"
}

//fairnn:noalloc
func grow(b *buf, n int) {
	b.scratch = make([]int32, n) // want "make in noalloc function"
}

//fairnn:noalloc
func stringify(bs []byte) string {
	return string(bs) // want "to string conversion"
}

//fairnn:noalloc
func box(x int32) {
	sink(x) // want "boxes a non-pointer value into an interface"
}

//fairnn:noalloc
func sink(v any) int32 {
	if n, ok := v.(int32); ok {
		return n
	}
	return 0
}

func cold(b *buf) { b.scratch = nil }

// A lazy-init guard exempts only its body: the if's init statement,
// condition and else branch run whether or not the guard holds.
//
//fairnn:noalloc
func guardBodyOnly(b *buf) {
	if err := fallible(); err != nil { // want "not annotated //fairnn:noalloc"
		b.scratch = nil
	}
	if len(grown(b)) == 0 { // want "not annotated //fairnn:noalloc"
		return
	}
	if b.scratch == nil {
		b.scratch = make([]int32, 0, 8)
	} else {
		b.out = make([]int32, 4) // want "make in noalloc function"
	}
}

func fallible() error { return nil }

func grown(b *buf) []int32 { return b.scratch }
