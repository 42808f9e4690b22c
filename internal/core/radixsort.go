package core

import "math/bits"

// The package's one key/count sort: an exact most-significant-digit radix
// partition over the bit window in which the keys actually vary. Keys are
// mixed-radix table keys, so that window is usually far narrower than 64
// bits and two or three digits sort a partition. The sort needs no scratch
// proportional to its input: a digit pass is an in-place American-flag
// permutation whose only state is one cursor pair per bucket.
const (
	// kvInsertionMax is the range length at or below which a range is
	// finished by insertion sort instead of another digit pass.
	kvInsertionMax = 32
	// kvBucketTarget is the mean bucket size a digit width aims for: the
	// width is the smallest whose bucket count exceeds len/kvBucketTarget.
	kvBucketTarget = 16
	// kvDigitMaxBits caps a digit at 2^12 buckets. A scatter into 4096
	// buckets keeps the open destination lines of both columns within L2,
	// and the buckets it leaves (~512 entries for a 2M-entry partition)
	// are finished in L1; BenchmarkFreeze measured 12 bits ~10% faster
	// than 16 and than 8.
	kvDigitMaxBits = 12
	// kvStackBuckets is the largest bucket count whose cursors live on the
	// stack; wider digits (large ranges only) allocate them.
	kvStackBuckets = 64
)

// sortKV sorts keys ascending in place, applying the same permutation to
// counts so counts[i] stays paired with keys[i]. Duplicate keys end up
// adjacent in unspecified relative order.
func sortKV(keys, counts []uint64) {
	if len(keys) <= kvInsertionMax {
		insertionKV(keys, counts)
		return
	}
	radixKV(keys, counts, varyingBits(keys))
}

// varyingBits returns the mask of bit positions in which keys differ.
func varyingBits(keys []uint64) uint64 {
	or, and := uint64(0), ^uint64(0)
	for _, k := range keys {
		or |= k
		and &= k
	}
	return or ^ and
}

// kvDigit returns the digit (shift, mask) for sorting n keys whose varying
// bits are varying: the top digit of the window, kvBucketTarget entries
// per bucket on average, at most kvDigitMaxBits wide. varying must be
// nonzero.
func kvDigit(n int, varying uint64) (shift uint, mask uint64) {
	top := bits.Len64(varying)
	width := min(max(bits.Len(uint(n/kvBucketTarget)), 1), kvDigitMaxBits, top)
	return uint(top - width), 1<<width - 1
}

// radixKV sorts keys (with counts) whose varying bits are varying: one
// in-place digit pass, then every bucket is finished recursively on the
// bits below the digit.
func radixKV(keys, counts []uint64, varying uint64) {
	if varying == 0 {
		return // all keys equal
	}
	shift, mask := kvDigit(len(keys), varying)
	nb := int(mask) + 1
	var stack [2*kvStackBuckets + 1]int
	cur := stack[:]
	if nb > kvStackBuckets {
		cur = make([]int, 2*nb+1)
	}
	start, next := bucketStarts(keys, shift, mask, cur)

	// American-flag permutation: each misplaced entry is swapped straight
	// into its bucket's next free slot, so every entry moves at most once.
	for d := 0; d < nb; d++ {
		lim := start[d+1]
		for i := next[d]; i < lim; i = next[d] {
			k, c := keys[i], counts[i]
			for dd := int((k >> shift) & mask); dd != d; dd = int((k >> shift) & mask) {
				j := next[dd]
				next[dd]++
				keys[j], k = k, keys[j]
				counts[j], c = c, counts[j]
			}
			keys[i], counts[i] = k, c
			next[d]++
		}
	}
	finishBuckets(keys, counts, start)
}

// bucketStarts histograms keys by the digit (key>>shift)&mask into cur
// (length at least 2*(mask+1)+1, zeroed) and returns start, where bucket d
// holds ranks [start[d], start[d+1]), and next, a copy of start[:mask+1]
// to serve as the buckets' write cursors.
func bucketStarts(keys []uint64, shift uint, mask uint64, cur []int) (start, next []int) {
	nb := int(mask) + 1
	start, next = cur[:nb+1], cur[nb+1:2*nb+1]
	for _, k := range keys {
		start[(k>>shift)&mask+1]++
	}
	for d := 1; d <= nb; d++ {
		start[d] += start[d-1]
	}
	copy(next, start[:nb])
	return start, next
}

// finishBuckets sorts each bucket [start[d], start[d+1]) of a completed
// digit pass on the bits below the digit.
func finishBuckets(keys, counts []uint64, start []int) {
	for d := 0; d+1 < len(start); d++ {
		lo, hi := start[d], start[d+1]
		switch {
		case hi-lo > kvInsertionMax:
			radixKV(keys[lo:hi], counts[lo:hi], varyingBits(keys[lo:hi]))
		case hi-lo > 1:
			insertionKV(keys[lo:hi], counts[lo:hi])
		}
	}
}

// insertionKV insertion-sorts a short range of keys (with counts).
func insertionKV(keys, counts []uint64) {
	for i := 1; i < len(keys); i++ {
		k, c := keys[i], counts[i]
		j := i
		for ; j > 0 && keys[j-1] > k; j-- {
			keys[j], counts[j] = keys[j-1], counts[j-1]
		}
		keys[j], counts[j] = k, c
	}
}
