package api_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"xbarsec/api"
)

// TestQueryBatchFrameLayout pins the byte layout documented on
// api.QueryBatchContentType, computed independently of the encoder.
func TestQueryBatchFrameLayout(t *testing.T) {
	rows := [][]float64{{1.5, -2}, {0, math.SmallestNonzeroFloat64}}
	got, err := api.AppendQueryBatch([]byte("prefix"), rows)
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	payload := le.AppendUint32(nil, 2)
	payload = le.AppendUint32(payload, 2)
	for _, r := range rows {
		for _, v := range r {
			payload = le.AppendUint64(payload, math.Float64bits(v))
		}
	}
	want := le.AppendUint32([]byte("prefix"), uint32(len(payload)))
	want = le.AppendUint32(want, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	want = append(want, payload...)
	if !bytes.Equal(got, want) {
		t.Fatalf("frame = %x\nwant    %x", got, want)
	}
	n, r, c, err := api.QueryBatchShape(got[len("prefix"):])
	if err != nil || n != len(want)-len("prefix") || r != 2 || c != 2 {
		t.Fatalf("shape = %d, %d×%d, %v", n, r, c, err)
	}
}

func TestAppendQueryBatchRefuses(t *testing.T) {
	for name, rows := range map[string][][]float64{
		"empty":  nil,
		"ragged": {{1, 2}, {3}},
		"nan":    {{1, math.NaN()}},
		"+inf":   {{math.Inf(1)}},
		"-inf":   {{0}, {math.Inf(-1)}},
	} {
		dst := []byte("keep")
		got, err := api.AppendQueryBatch(dst, rows)
		if err == nil || string(got) != "keep" {
			t.Errorf("%s: frame %q, err %v; want refusal with dst unchanged", name, got, err)
		}
	}
}

func TestDecodeQueryBatchRejects(t *testing.T) {
	good, err := api.AppendQueryBatch(nil, [][]float64{{1, 2, 3}, {4, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	patch := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	withValue := func(v float64) []byte {
		return patch(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[api.QueryBatchHeaderSize+8:], math.Float64bits(v))
			binary.LittleEndian.PutUint32(b[4:], crc32.Checksum(b[8:], crc32.MakeTable(crc32.Castagnoli)))
			return b
		})
	}
	cases := map[string]struct {
		frame []byte
		slab  int
		want  string
	}{
		"short prefix": {good[:api.QueryBatchHeaderSize-1], 6, "prefix"},
		"truncated":    {good[:len(good)-1], 6, "prefix says"},
		"trailing":     {append(append([]byte(nil), good...), 0), 6, "prefix says"},
		"bad crc":      {patch(func(b []byte) []byte { b[len(b)-1] ^= 1; return b }), 6, "CRC"},
		"bad length": {patch(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[12:], 4)
			return b
		}), 6, "does not fit"},
		"overflow": {patch(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], math.MaxUint32)
			binary.LittleEndian.PutUint32(b[12:], math.MaxUint32)
			return b
		}), 6, "does not fit"},
		"small slab": {good, 5, "slab"},
		"nan":        {withValue(math.NaN()), 6, "non-finite"},
		"+inf":       {withValue(math.Inf(1)), 6, "non-finite"},
		"-inf":       {withValue(math.Inf(-1)), 6, "non-finite"},
	}
	for name, tc := range cases {
		if _, err := api.DecodeQueryBatch(tc.frame, make([]float64, tc.slab)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", name, err, tc.want)
		}
	}
	rows, err := api.DecodeQueryBatch(good, make([]float64, 8))
	if err != nil || len(rows) != 2 || rows[1][2] != 6 || cap(rows[0]) != 3 {
		t.Fatalf("good frame = %v (cap %d), %v", rows, cap(rows[0]), err)
	}
}

// FuzzDecodeQueryBatch feeds arbitrary bytes to the decoder, which must
// never panic, and checks both directions of the round trip: a frame the
// decoder accepts re-encodes to the same bytes, and rows of finite
// values built from the input decode back bit for bit.
func FuzzDecodeQueryBatch(f *testing.F) {
	for _, rows := range [][][]float64{
		{{0}},
		{{1, -2.5, 3}, {4, 5, 6}},
		{{math.MaxFloat64, -math.SmallestNonzeroFloat64}},
		{{}, {}},
	} {
		frame, err := api.AppendQueryBatch(nil, rows)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte{})
	f.Add(make([]byte, api.QueryBatchHeaderSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		slab := make([]float64, len(data)/8)
		if rows, err := api.DecodeQueryBatch(data, slab); err == nil {
			again, err := api.AppendQueryBatch(nil, rows)
			if len(rows) == 0 {
				if err == nil {
					t.Fatal("empty batch encoded")
				}
			} else if err != nil || !bytes.Equal(again, data) {
				t.Fatalf("accepted frame re-encodes to %x, %v; want %x", again, err, data)
			}
		}

		if len(data) < 1 {
			return
		}
		cols := int(data[0]%8) + 1
		vals := data[1:]
		rows := make([][]float64, len(vals)/(8*cols))
		for i := range rows {
			rows[i] = make([]float64, cols)
			for j := range rows[i] {
				v := math.Float64frombits(binary.LittleEndian.Uint64(vals[8*(i*cols+j):]))
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return
				}
				rows[i][j] = v
			}
		}
		if len(rows) == 0 {
			return
		}
		frame, err := api.AppendQueryBatch(nil, rows)
		if err != nil {
			t.Fatal(err)
		}
		got, err := api.DecodeQueryBatch(frame, make([]float64, len(rows)*cols))
		if err != nil {
			t.Fatal(err)
		}
		for i := range rows {
			for j := range rows[i] {
				if math.Float64bits(got[i][j]) != math.Float64bits(rows[i][j]) {
					t.Fatalf("row %d col %d: %v decoded as %v", i, j, rows[i][j], got[i][j])
				}
			}
		}
	})
}
