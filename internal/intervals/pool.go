package intervals

import "sync"

// Scratch-buffer pools for the interval algebra. Union, RelativeComplement
// and FromPoints are the hottest allocation sites of the recognition engine:
// every one of them needs a transient buffer that used to be allocated per
// call. The pools recycle those buffers across calls (and across windows).

// maxPooledCap bounds the capacity of a recycled buffer: pathological runs
// must not pin arbitrarily large slices in the pool.
const maxPooledCap = 1 << 14

var (
	ivPool = sync.Pool{New: func() any {
		s := make([]Interval, 0, 64)
		return &s
	}}
	i64Pool = sync.Pool{New: func() any {
		s := make([]int64, 0, 64)
		return &s
	}}
)

func getIvScratch() *[]Interval {
	return ivPool.Get().(*[]Interval)
}

func putIvScratch(p *[]Interval) {
	if cap(*p) > maxPooledCap {
		return
	}
	*p = (*p)[:0]
	ivPool.Put(p)
}

func getI64Scratch() *[]int64 {
	return i64Pool.Get().(*[]int64)
}

func putI64Scratch(p *[]int64) {
	if cap(*p) > maxPooledCap {
		return
	}
	*p = (*p)[:0]
	i64Pool.Put(p)
}
