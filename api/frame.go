package api

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
)

// QueryBatchContentType is the Content-Type of the binary
// POST /v2/sessions/{id}/queries request body (additive in v2.3): the
// QueryBatchRequest rows as one CRC-checked frame of little-endian
// float64s. A server accepts it iff its VersionInfo.BatchEncodings
// lists it; JSON stays the default encoding of every request.
//
// The frame is [len u32][crc32c u32][payload], all little-endian, where
// len counts the payload bytes and crc32c is the Castagnoli CRC of the
// payload. The payload is [rows u32][cols u32] followed by rows·cols
// float64 values in row-major order. Every value must be finite, as in
// JSON, which cannot carry NaN or ±Inf.
const QueryBatchContentType = "application/vnd.xbarsec.f64rows"

// QueryBatchHeaderSize is the length of a frame's fixed prefix: the
// frame length and CRC, then the payload's row and column counts. It is
// enough for QueryBatchShape to size a frame before its body is read.
const QueryBatchHeaderSize = 16

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxFramePayload is the largest payload a u32 length prefix can carry.
const maxFramePayload = math.MaxUint32

const expMask = 0x7ff0000000000000 // float64 exponent bits: all set = NaN or ±Inf

// AppendQueryBatch appends the binary frame of rows to dst. It fails,
// leaving dst unchanged, when the rows are not a batch the frame can
// carry: empty, ragged (rows of different lengths), too large for the
// u32 length prefix, or holding a non-finite value.
func AppendQueryBatch(dst []byte, rows [][]float64) ([]byte, error) {
	if len(rows) == 0 {
		return dst, errors.New("api: empty query batch")
	}
	cols := len(rows[0])
	for i, r := range rows {
		if len(r) != cols {
			return dst, fmt.Errorf("api: ragged query batch: row %d has %d values, row 0 has %d", i, len(r), cols)
		}
		for _, v := range r {
			if math.Float64bits(v)&expMask == expMask {
				return dst, fmt.Errorf("api: query batch row %d holds a non-finite value", i)
			}
		}
	}
	payload := 8 + 8*uint64(len(rows))*uint64(cols)
	if uint64(len(rows)) > maxFramePayload || payload > maxFramePayload {
		return dst, fmt.Errorf("api: query batch of %d×%d values exceeds the frame limit", len(rows), cols)
	}
	start, size := len(dst), 8+int(payload)
	dst = slices.Grow(dst, size)
	frame := dst[start : start+size]
	binary.LittleEndian.PutUint32(frame[0:], uint32(payload))
	binary.LittleEndian.PutUint32(frame[8:], uint32(len(rows)))
	binary.LittleEndian.PutUint32(frame[12:], uint32(cols))
	off := QueryBatchHeaderSize
	for _, r := range rows {
		for _, v := range r {
			binary.LittleEndian.PutUint64(frame[off:], math.Float64bits(v))
			off += 8
		}
	}
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(frame[8:], castagnoli))
	return dst[:start+size], nil
}

// QueryBatchShape reads a frame's fixed prefix (at least
// QueryBatchHeaderSize bytes) and returns the whole frame's length in
// bytes and the batch shape. It fails when the prefix is short or the
// length prefix disagrees with 8 + 8·rows·cols. It reads no payload, so
// a server can bound a frame before allocating for it.
func QueryBatchShape(prefix []byte) (frameLen, rows, cols int, err error) {
	if len(prefix) < QueryBatchHeaderSize {
		return 0, 0, 0, fmt.Errorf("api: query batch frame prefix of %d bytes, want %d", len(prefix), QueryBatchHeaderSize)
	}
	n := uint64(binary.LittleEndian.Uint32(prefix[0:]))
	r := uint64(binary.LittleEndian.Uint32(prefix[8:]))
	c := uint64(binary.LittleEndian.Uint32(prefix[12:]))
	// r and c are below 2^32, so r·c cannot overflow; bounding it first
	// keeps 8·r·c from overflowing too.
	if rc := r * c; rc > (maxFramePayload-8)/8 || 8+8*rc != n {
		return 0, 0, 0, fmt.Errorf("api: query batch frame length %d does not fit %d rows of %d values", n, r, c)
	}
	return 8 + int(n), int(r), int(c), nil
}

// DecodeQueryBatch decodes one whole frame into slab, which must hold
// at least rows·cols values, and returns the rows as sub-slices of it.
// It fails when the frame is truncated or carries trailing bytes, when
// the CRC does not match, or when any value is not finite.
func DecodeQueryBatch(frame []byte, slab []float64) ([][]float64, error) {
	n, rows, cols, err := QueryBatchShape(frame)
	if err != nil {
		return nil, err
	}
	if len(frame) != n {
		return nil, fmt.Errorf("api: query batch frame of %d bytes, its prefix says %d", len(frame), n)
	}
	if crc32.Checksum(frame[8:], castagnoli) != binary.LittleEndian.Uint32(frame[4:]) {
		return nil, errors.New("api: query batch frame CRC mismatch")
	}
	if len(slab) < rows*cols {
		return nil, fmt.Errorf("api: slab of %d values for a %d×%d query batch", len(slab), rows, cols)
	}
	slab = slab[:rows*cols]
	if i := fillSlab(slab, frame[QueryBatchHeaderSize:]); i >= 0 {
		return nil, fmt.Errorf("api: query batch row %d holds a non-finite value", i/cols)
	}
	out := make([][]float64, rows)
	for i := range out {
		out[i] = slab[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return out, nil
}

// fillSlab decodes len(dst) little-endian float64s from src into dst
// and returns the index of the first non-finite value, or -1.
//
//xbar:hotpath
func fillSlab(dst []float64, src []byte) int {
	src = src[:8*len(dst)]
	for i := range dst {
		bits := binary.LittleEndian.Uint64(src[8*i:])
		if bits&expMask == expMask {
			return i
		}
		dst[i] = math.Float64frombits(bits)
	}
	return -1
}
