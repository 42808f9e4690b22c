package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"waitfreebn/internal/encoding"
	"waitfreebn/internal/hashtable"
)

// Serialization lets an expensive table build be done once and the result
// shipped or cached: the format stores the codec's cardinalities, the
// sample count, and the key→count entries (keys sorted, delta- and
// varint-encoded, so dense key populations compress well). Output is
// deterministic: the same table always serializes to the same bytes
// regardless of partitioning.

// tableMagic identifies the format and its version.
var tableMagic = []byte("WFBN1\n")

// WriteTo serializes the table. It returns the number of bytes written.
func (t *PotentialTable) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: bufio.NewWriter(w)}
	if _, err := cw.Write(tableMagic); err != nil {
		return cw.n, err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := cw.Write(buf[:n])
		return err
	}

	cards := t.codec.Cardinalities()
	if err := putUvarint(uint64(len(cards))); err != nil {
		return cw.n, err
	}
	for _, c := range cards {
		if err := putUvarint(uint64(c)); err != nil {
			return cw.n, err
		}
	}
	if err := putUvarint(t.m); err != nil {
		return cw.n, err
	}

	// Collect and sort entries for delta encoding and determinism.
	keys := make([]uint64, 0, t.Len())
	counts := make([]uint64, 0, t.Len())
	t.Range(func(key, count uint64) bool {
		keys = append(keys, key)
		counts = append(counts, count)
		return true
	})
	sortKV(keys, counts)

	if err := putUvarint(uint64(len(keys))); err != nil {
		return cw.n, err
	}
	prev := uint64(0)
	for i, key := range keys {
		if err := putUvarint(key - prev); err != nil {
			return cw.n, err
		}
		prev = key
		if err := putUvarint(counts[i]); err != nil {
			return cw.n, err
		}
	}
	return cw.n, cw.w.(*bufio.Writer).Flush()
}

// ReadTable deserializes a table written by WriteTo, reconstructing it
// with the requested partition count (0 = 1 partition).
func ReadTable(r io.Reader, partitions int) (*PotentialTable, error) {
	if partitions <= 0 {
		partitions = 1
	}
	br := bufio.NewReader(r)
	magic := make([]byte, len(tableMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: reading magic: %w", err)
	}
	if string(magic) != string(tableMagic) {
		return nil, fmt.Errorf("core: bad magic %q", magic)
	}
	nVars, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("core: reading variable count: %w", err)
	}
	if nVars == 0 || nVars > 1<<20 {
		return nil, fmt.Errorf("core: implausible variable count %d", nVars)
	}
	cards := make([]int, nVars)
	for i := range cards {
		c, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("core: reading cardinality %d: %w", i, err)
		}
		if c < 1 || c > 256 {
			return nil, fmt.Errorf("core: cardinality %d outside [1,256]", c)
		}
		cards[i] = int(c)
	}
	codec, err := encoding.NewCodec(cards)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	m, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("core: reading sample count: %w", err)
	}
	numEntries, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("core: reading entry count: %w", err)
	}
	if numEntries > m {
		return nil, fmt.Errorf("core: %d entries exceed %d samples", numEntries, m)
	}
	if numEntries > codec.KeySpace() {
		return nil, fmt.Errorf("core: %d entries exceed key space %d", numEntries, codec.KeySpace())
	}

	parts := make([]hashtable.Counter, partitions)
	// Pre-size from the header but never trust it for more than a bounded
	// up-front allocation — a forged header must not be able to OOM the
	// reader before a single entry is parsed. Tables grow on demand.
	hint := int(numEntries)/partitions + 1
	if hint > 1<<20 {
		hint = 1 << 20
	}
	for i := range parts {
		parts[i] = hashtable.New(hint)
	}
	var key uint64
	var totalCount uint64
	idx, perPart := 0, (int(numEntries)+partitions-1)/partitions
	inPart := 0
	for i := uint64(0); i < numEntries; i++ {
		delta, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("core: reading entry %d key: %w", i, err)
		}
		count, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("core: reading entry %d count: %w", i, err)
		}
		if count == 0 {
			return nil, fmt.Errorf("core: entry %d has zero count", i)
		}
		if i == 0 {
			key = delta
		} else {
			if delta == 0 {
				return nil, fmt.Errorf("core: duplicate key at entry %d", i)
			}
			key += delta
		}
		if key >= codec.KeySpace() {
			return nil, fmt.Errorf("core: key %d outside key space %d", key, codec.KeySpace())
		}
		if inPart == perPart && idx < partitions-1 {
			idx++
			inPart = 0
		}
		parts[idx].Add(key, count)
		inPart++
		totalCount += count
	}
	if totalCount != m {
		return nil, fmt.Errorf("core: counts sum to %d, header says %d samples", totalCount, m)
	}
	return NewPotentialTable(codec, parts, m), nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
