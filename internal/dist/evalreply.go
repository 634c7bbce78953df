package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"hyper/internal/engine"
	"hyper/internal/obs"
)

// The eval reply is the one binary body on the wire. Without cross-tuple
// edges every tuple is its own block, so a reply carrying two floats per view
// row would be as large as the data: decimal JSON cost several times the
// evaluation to encode and decode, and cannot carry NaN or ±Inf at all.
// Format 2 sends what the producer computed instead, one (sum, count) per
// tuple class its rows reference and a one- or two-byte code per row (see
// engine.ShardPartial), falling back to the rows' own values where codes
// would not be smaller. Raw float bits are exact by construction (NaN
// payloads, ±0, subnormals), and codes are bytes.
//
//	magic    4 bytes, "HPE" + format version
//	hdrLen   uint32, little-endian
//	header   hdrLen bytes of JSON: evalHeader
//	body     per partial in order: its n Sum values, then its n Cnt values,
//	         each as little-endian math.Float64bits; then its rows codes of
//	         width bytes each, little-endian
//
// A reader of another format version refuses the body at its magic.
var evalMagic = [4]byte{'H', 'P', 'E', 2}

type evalHeader struct {
	Meta     engine.PartialMeta `json:"meta"`
	Spans    *obs.SpanJSON      `json:"spans,omitempty"`
	Meter    *obs.MeterJSON     `json:"meter,omitempty"`
	Partials []partialHeader    `json:"partials"`
}

// partialHeader describes one ShardPartial; its n sums, n counts and rows
// codes follow the header.
type partialHeader struct {
	Shard    int `json:"shard"`
	MinBlock int `json:"min_block,omitempty"`
	N        int `json:"n"`
	Width    int `json:"width,omitempty"`
	Rows     int `json:"rows,omitempty"`
}

// encodeEvalReply renders a worker's eval reply.
func encodeEvalReply(resp *EvalResponse) ([]byte, error) {
	h := evalHeader{Meta: resp.Meta, Spans: resp.Spans, Meter: resp.Meter, Partials: make([]partialHeader, len(resp.Partials))}
	size := 0
	for i, p := range resp.Partials {
		if err := resp.Meta.Check(p); err != nil {
			return nil, fmt.Errorf("dist: %w", err)
		}
		h.Partials[i] = partialHeader{Shard: p.Shard, MinBlock: p.MinBlock, N: len(p.Sum), Width: p.Width}
		if p.Width > 0 {
			h.Partials[i].Rows = len(p.Codes) / p.Width
		}
		size += 16*len(p.Sum) + len(p.Codes)
	}
	hdr, err := json.Marshal(h)
	if err != nil {
		return nil, fmt.Errorf("dist: encoding eval reply header: %w", err)
	}
	buf := make([]byte, 0, len(evalMagic)+4+len(hdr)+size)
	buf = append(buf, evalMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(hdr)))
	buf = append(buf, hdr...)
	for _, p := range resp.Partials {
		for _, v := range p.Sum {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		for _, v := range p.Cnt {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		buf = append(buf, p.Codes...)
	}
	return buf, nil
}

// decodeEvalReply parses an eval reply body. Every length is checked against
// the bytes that remain before anything is allocated for it, so a hostile or
// truncated body costs at most its own size, and every partial is held to
// its meta's regime (engine.PartialMeta.Check) before anything reads its
// codes. A partial's codes are the body's own bytes.
func decodeEvalReply(body []byte) (*EvalResponse, error) {
	if len(body) < len(evalMagic)+4 || !bytes.Equal(body[:len(evalMagic)], evalMagic[:]) {
		return nil, errors.New("not an eval reply (bad magic or format version)")
	}
	rest := body[len(evalMagic)+4:]
	hdrLen := binary.LittleEndian.Uint32(body[len(evalMagic):])
	if uint64(hdrLen) > uint64(len(rest)) {
		return nil, fmt.Errorf("header of %d bytes overruns the %d-byte body", hdrLen, len(body))
	}
	var h evalHeader
	if err := json.Unmarshal(rest[:hdrLen], &h); err != nil {
		return nil, fmt.Errorf("eval reply header: %w", err)
	}
	rest = rest[hdrLen:]
	resp := &EvalResponse{
		PartialResult: engine.PartialResult{Meta: h.Meta, Partials: make([]engine.ShardPartial, len(h.Partials))},
		Spans:         h.Spans,
		Meter:         h.Meter,
	}
	for i, ph := range h.Partials {
		if ph.N < 0 || ph.N > len(rest)/16 {
			return nil, fmt.Errorf("partial %d (shard %d) declares %d sum/count pairs, %d bytes remain", i, ph.Shard, ph.N, len(rest))
		}
		floats := 16 * ph.N
		if ph.Width < 0 || ph.Rows < 0 || ph.Rows > (len(rest)-floats)/max(ph.Width, 1) || ph.Width == 0 && ph.Rows > 0 {
			return nil, fmt.Errorf("partial %d (shard %d) declares %d codes of %d bytes, %d bytes remain", i, ph.Shard, ph.Rows, ph.Width, len(rest)-floats)
		}
		end := floats + ph.Width*ph.Rows
		p := engine.ShardPartial{Shard: ph.Shard, MinBlock: ph.MinBlock, Width: ph.Width}
		if ph.N > 0 {
			p.Sum, p.Cnt = readFloats(rest[:8*ph.N]), readFloats(rest[8*ph.N:floats])
		}
		if ph.Width > 0 {
			p.Codes = rest[floats:end:end]
		}
		if err := h.Meta.Check(p); err != nil {
			return nil, fmt.Errorf("partial %d: %w", i, err)
		}
		resp.Partials[i] = p
		rest = rest[end:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after the last partial", len(rest))
	}
	return resp, nil
}

// readFloats decodes little-endian float64 bits; the result is sized by the
// bytes it is given.
func readFloats(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}
