package client

import (
	"bytes"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"xbarsec/api"
)

// requestFrame is a pooled, encoded binary request body shared by every
// attempt (retry or redirect hop) of one call. The call holds one
// reference and each attempt's body another; the bytes go back to the
// pool when the last one lets go. The transport may still be writing a
// body after RoundTrip returns, so the call returning is not enough.
type requestFrame struct {
	data []byte
	refs atomic.Int32
}

var framePool = sync.Pool{New: func() any { return new(requestFrame) }}

// encodeQueryBatch frames rows as an api.QueryBatchContentType body, or
// returns nil when the frame cannot carry them (an empty or ragged
// batch, say); the caller then sends JSON.
func encodeQueryBatch(rows [][]float64) *requestFrame {
	f := framePool.Get().(*requestFrame)
	data, err := api.AppendQueryBatch(f.data[:0], rows)
	if err != nil {
		framePool.Put(f)
		return nil
	}
	f.data = data
	f.refs.Store(1)
	return f
}

// release drops one reference.
func (f *requestFrame) release() {
	if f.refs.Add(-1) == 0 {
		framePool.Put(f)
	}
}

// body returns a fresh reader over the frame for one attempt; closing
// it drops the reference it holds.
func (f *requestFrame) body() io.ReadCloser {
	f.refs.Add(1)
	return &frameBody{Reader: bytes.NewReader(f.data), f: f}
}

type frameBody struct {
	*bytes.Reader
	f    *requestFrame
	once sync.Once
}

func (b *frameBody) Close() error {
	b.once.Do(b.f.release)
	return nil
}

// accepts reports whether the version handshake advertised contentType
// as a batch encoding. Without a handshake (WithoutVersionCheck) it is
// false, so such a client keeps to JSON.
func (c *Client) accepts(contentType string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Contains(c.version.BatchEncodings, contentType)
}
