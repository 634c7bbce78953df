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
// edges every tuple is its own block, so a reply carries two floats per view
// row: decimal JSON made it as large as the data and cost several times the
// evaluation to encode and decode, and JSON cannot carry NaN or ±Inf at all.
// Raw float bits are exact by construction (NaN payloads, ±0, subnormals).
//
//	magic    4 bytes, "HPE" + format version
//	hdrLen   uint32, little-endian
//	header   hdrLen bytes of JSON: evalHeader
//	floats   per partial in order: its n Sum values, then its n Cnt values,
//	         each as little-endian math.Float64bits
var evalMagic = [4]byte{'H', 'P', 'E', 1}

type evalHeader struct {
	Meta     engine.PartialMeta `json:"meta"`
	Spans    *obs.SpanJSON      `json:"spans,omitempty"`
	Meter    *obs.MeterJSON     `json:"meter,omitempty"`
	Partials []partialHeader    `json:"partials"`
}

// partialHeader describes one ShardPartial; its n sums and n counts follow
// the header.
type partialHeader struct {
	Shard    int `json:"shard"`
	MinBlock int `json:"min_block"`
	N        int `json:"n"`
}

// encodeEvalReply renders a worker's eval reply.
func encodeEvalReply(resp *EvalResponse) ([]byte, error) {
	h := evalHeader{Meta: resp.Meta, Spans: resp.Spans, Meter: resp.Meter, Partials: make([]partialHeader, len(resp.Partials))}
	floats := 0
	for i, p := range resp.Partials {
		if len(p.Sum) != len(p.Cnt) {
			return nil, fmt.Errorf("dist: shard %d has %d sums but %d counts", p.Shard, len(p.Sum), len(p.Cnt))
		}
		h.Partials[i] = partialHeader{Shard: p.Shard, MinBlock: p.MinBlock, N: len(p.Sum)}
		floats += 2 * len(p.Sum)
	}
	hdr, err := json.Marshal(h)
	if err != nil {
		return nil, fmt.Errorf("dist: encoding eval reply header: %w", err)
	}
	buf := make([]byte, 0, len(evalMagic)+4+len(hdr)+8*floats)
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
	}
	return buf, nil
}

// decodeEvalReply parses an eval reply body. Every length is checked against
// the bytes that remain before anything is allocated for it, so a hostile or
// truncated body costs at most its own size.
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
		p := engine.ShardPartial{Shard: ph.Shard, MinBlock: ph.MinBlock}
		if ph.N > 0 {
			p.Sum, p.Cnt = readFloats(rest[:8*ph.N]), readFloats(rest[8*ph.N:16*ph.N])
		}
		resp.Partials[i] = p
		rest = rest[16*ph.N:]
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
