package cluster

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"lsdgnn/internal/graph"
	"lsdgnn/internal/obs"
)

// Batched RPC protocol between sampling workers and graph servers. The
// encoding is length-prefixed little-endian binary, shared by the in-process
// accounting transport and the TCP transport so that byte counts in the
// characterization match what really crosses the wire.

// Op codes.
const (
	OpGetNeighbors = 0x01
	OpGetAttrs     = 0x02
	OpMeta         = 0x03
	// OpTraced is the protocol-v1 trace header: it envelopes any other
	// message with an 8-byte trace ID (requests) or the server's handling
	// time in nanoseconds (responses), giving clients a wire-vs-server
	// latency split per hop. Version-gated: clients only send it to peers
	// that advertised ProtoVersion ≥ 1 in the meta handshake, so legacy
	// peers never see the op.
	OpTraced = 0x10
	// OpAuthed is the multi-tenant auth header: it envelopes any request
	// (traced and packed frames included — it wraps outermost) with the
	// sending tenant's API key, so a gateway.WireGate in front of the
	// server can attribute and admit the frame before anything else runs.
	// Sent only when the client holds a key (WithAPIKey); responses are
	// never enveloped.
	OpAuthed = 0x30
)

// ProtoVersion is this build's wire protocol version. Version 0 (legacy)
// is the pre-tracing protocol: 21-byte meta responses, no OpTraced.
// Version 1 added the OpTraced envelope. Version 2 adds OpPacked MoF
// frames (packed.go): multi-request packing + BDI-compressed sections. A
// client requests the version by appending its own version byte to the
// OpMeta message — legacy servers ignore trailing bytes and answer in the
// legacy format, which a newer client reads as "version 0 peer" and falls
// back to plain frames. Symmetrically, a newer server answers a bare
// OpMeta with the legacy 21-byte form, so old clients interop unchanged;
// v1 clients gate only on Version ≥ 1 and keep tracing against a v2 peer
// without ever seeing OpPacked.
const ProtoVersion = 2

// EncodeMetaRequest serializes the version-negotiating meta request.
func EncodeMetaRequest() []byte { return []byte{OpMeta, ProtoVersion} }

// MetaRequestVersion extracts the client's advertised protocol version
// from an OpMeta message; a bare legacy request advertises 0.
func MetaRequestVersion(msg []byte) int {
	if len(msg) >= 2 && msg[0] == OpMeta {
		return int(msg[1])
	}
	return 0
}

// EncodeTracedRequest envelopes a request message with its trace ID.
func EncodeTracedRequest(id obs.TraceID, inner []byte) []byte {
	out := make([]byte, 0, 9+len(inner))
	out = append(out, OpTraced)
	out = binary.LittleEndian.AppendUint64(out, uint64(id))
	return append(out, inner...)
}

// DecodeTracedRequest parses an OpTraced request envelope into the trace
// ID and the inner message.
func DecodeTracedRequest(b []byte) (obs.TraceID, []byte, error) {
	if len(b) < 9 || b[0] != OpTraced {
		return 0, nil, fmt.Errorf("cluster: not a traced request")
	}
	inner := b[9:]
	if len(inner) == 0 {
		return 0, nil, fmt.Errorf("cluster: traced envelope with empty body")
	}
	if inner[0] == OpTraced {
		return 0, nil, fmt.Errorf("cluster: nested traced envelope")
	}
	return obs.TraceID(binary.LittleEndian.Uint64(b[1:])), inner, nil
}

// EncodeTracedReply envelopes a response with the server's handling time.
func EncodeTracedReply(serverTime time.Duration, inner []byte) []byte {
	out := make([]byte, 0, 9+len(inner))
	out = append(out, OpTraced)
	out = binary.LittleEndian.AppendUint64(out, uint64(serverTime.Nanoseconds()))
	return append(out, inner...)
}

// DecodeTracedReply parses an OpTraced response envelope into the server
// handling time and the inner response.
func DecodeTracedReply(b []byte) (time.Duration, []byte, error) {
	if len(b) < 9 || b[0] != OpTraced {
		return 0, nil, fmt.Errorf("cluster: not a traced reply")
	}
	return time.Duration(binary.LittleEndian.Uint64(b[1:])), b[9:], nil
}

// EncodeAuthedRequest envelopes a request with the tenant API key:
// [OpAuthed, u8 key length, key bytes, inner message]. Keys longer than
// 255 bytes are rejected at the option layer (WithAPIKey panics).
func EncodeAuthedRequest(key string, inner []byte) []byte {
	out := make([]byte, 0, 2+len(key)+len(inner))
	out = append(out, OpAuthed, byte(len(key)))
	out = append(out, key...)
	return append(out, inner...)
}

// DecodeAuthedRequest parses an OpAuthed envelope into the API key and
// the inner message.
func DecodeAuthedRequest(b []byte) (string, []byte, error) {
	if len(b) < 2 || b[0] != OpAuthed {
		return "", nil, fmt.Errorf("cluster: not an authed request")
	}
	n := int(b[1])
	if len(b) < 2+n {
		return "", nil, fmt.Errorf("cluster: truncated authed envelope: key %d bytes, have %d", n, len(b)-2)
	}
	inner := b[2+n:]
	if len(inner) == 0 {
		return "", nil, fmt.Errorf("cluster: authed envelope with empty body")
	}
	if inner[0] == OpAuthed {
		return "", nil, fmt.Errorf("cluster: nested authed envelope")
	}
	return string(b[2 : 2+n]), inner, nil
}

// NeighborsRequest asks for the adjacency lists of IDs, optionally capped.
type NeighborsRequest struct {
	IDs []graph.NodeID
	// MaxPerNode truncates each adjacency list server-side; 0 means no cap.
	MaxPerNode uint32
}

// NeighborsResponse carries one list per requested ID, in request order.
type NeighborsResponse struct {
	Lists [][]graph.NodeID
}

// AttrsRequest asks for attribute vectors of IDs.
type AttrsRequest struct{ IDs []graph.NodeID }

// AttrsResponse carries the concatenated attribute vectors, request order.
type AttrsResponse struct {
	AttrLen int
	Attrs   []float32
}

// MetaResponse describes a server's partition.
type MetaResponse struct {
	NumNodes   int64 // global node count
	AttrLen    int
	Partition  int
	Partitions int
	// Version is the peer's wire protocol version: 0 for legacy peers
	// (21-byte meta, no trace envelopes), ≥1 when the peer understands
	// OpTraced. Not serialized by the legacy encoding.
	Version int
}

func appendIDs(dst []byte, ids []graph.NodeID) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ids)))
	for _, v := range ids {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	return dst
}

func readIDs(src []byte) ([]graph.NodeID, []byte, error) {
	if len(src) < 4 {
		return nil, nil, fmt.Errorf("cluster: truncated ID list header")
	}
	n := binary.LittleEndian.Uint32(src)
	src = src[4:]
	if uint64(len(src)) < uint64(n)*8 {
		return nil, nil, fmt.Errorf("cluster: truncated ID list: want %d ids, have %d bytes", n, len(src))
	}
	ids := make([]graph.NodeID, n)
	for i := range ids {
		ids[i] = graph.NodeID(binary.LittleEndian.Uint64(src[i*8:]))
	}
	return ids, src[n*8:], nil
}

// EncodeNeighborsRequest serializes r.
func EncodeNeighborsRequest(r NeighborsRequest) []byte {
	out := []byte{OpGetNeighbors}
	out = binary.LittleEndian.AppendUint32(out, r.MaxPerNode)
	return appendIDs(out, r.IDs)
}

// DecodeNeighborsRequest parses an OpGetNeighbors message body.
func DecodeNeighborsRequest(b []byte) (NeighborsRequest, error) {
	if len(b) < 5 || b[0] != OpGetNeighbors {
		return NeighborsRequest{}, fmt.Errorf("cluster: not a neighbors request")
	}
	max := binary.LittleEndian.Uint32(b[1:])
	ids, rest, err := readIDs(b[5:])
	if err != nil {
		return NeighborsRequest{}, err
	}
	if len(rest) != 0 {
		return NeighborsRequest{}, fmt.Errorf("cluster: %d trailing bytes in neighbors request", len(rest))
	}
	return NeighborsRequest{IDs: ids, MaxPerNode: max}, nil
}

// EncodeNeighborsResponse serializes r into a buffer sized up front.
func EncodeNeighborsResponse(r NeighborsResponse) []byte {
	n := 5 + 4*len(r.Lists)
	for _, l := range r.Lists {
		n += 8 * len(l)
	}
	out := make([]byte, 0, n)
	out = append(out, OpGetNeighbors)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(r.Lists)))
	for _, l := range r.Lists {
		out = appendIDs(out, l)
	}
	return out
}

// DecodeNeighborsResponse parses an OpGetNeighbors response body.
func DecodeNeighborsResponse(b []byte) (NeighborsResponse, error) {
	if len(b) < 5 || b[0] != OpGetNeighbors {
		return NeighborsResponse{}, fmt.Errorf("cluster: not a neighbors response")
	}
	n := binary.LittleEndian.Uint32(b[1:])
	rest := b[5:]
	resp := NeighborsResponse{Lists: make([][]graph.NodeID, n)}
	var err error
	for i := range resp.Lists {
		resp.Lists[i], rest, err = readIDs(rest)
		if err != nil {
			return NeighborsResponse{}, err
		}
	}
	if len(rest) != 0 {
		return NeighborsResponse{}, fmt.Errorf("cluster: %d trailing bytes in neighbors response", len(rest))
	}
	return resp, nil
}

// EncodeAttrsRequest serializes r.
func EncodeAttrsRequest(r AttrsRequest) []byte {
	out := []byte{OpGetAttrs}
	return appendIDs(out, r.IDs)
}

// DecodeAttrsRequest parses an OpGetAttrs message body.
func DecodeAttrsRequest(b []byte) (AttrsRequest, error) {
	if len(b) < 1 || b[0] != OpGetAttrs {
		return AttrsRequest{}, fmt.Errorf("cluster: not an attrs request")
	}
	ids, rest, err := readIDs(b[1:])
	if err != nil {
		return AttrsRequest{}, err
	}
	if len(rest) != 0 {
		return AttrsRequest{}, fmt.Errorf("cluster: %d trailing bytes in attrs request", len(rest))
	}
	return AttrsRequest{IDs: ids}, nil
}

// EncodeAttrsResponse serializes r into a buffer sized up front.
func EncodeAttrsResponse(r AttrsResponse) []byte {
	out := make([]byte, 9+4*len(r.Attrs))
	out[0] = OpGetAttrs
	binary.LittleEndian.PutUint32(out[1:], uint32(r.AttrLen))
	binary.LittleEndian.PutUint32(out[5:], uint32(len(r.Attrs)))
	for i, f := range r.Attrs {
		binary.LittleEndian.PutUint32(out[9+4*i:], math.Float32bits(f))
	}
	return out
}

// DecodeAttrsResponse parses an OpGetAttrs response body.
func DecodeAttrsResponse(b []byte) (AttrsResponse, error) {
	if len(b) < 9 || b[0] != OpGetAttrs {
		return AttrsResponse{}, fmt.Errorf("cluster: not an attrs response")
	}
	attrLen := binary.LittleEndian.Uint32(b[1:])
	n := binary.LittleEndian.Uint32(b[5:])
	rest := b[9:]
	if uint64(len(rest)) != uint64(n)*4 {
		return AttrsResponse{}, fmt.Errorf("cluster: attrs payload %d bytes, want %d floats", len(rest), n)
	}
	attrs := make([]float32, n)
	for i := range attrs {
		attrs[i] = math.Float32frombits(binary.LittleEndian.Uint32(rest[i*4:]))
	}
	return AttrsResponse{AttrLen: int(attrLen), Attrs: attrs}, nil
}

// EncodeMetaResponse serializes r in the legacy 21-byte form (Version is
// dropped) — the answer to a bare OpMeta request, so protocol-v0 clients
// keep decoding it.
func EncodeMetaResponse(r MetaResponse) []byte {
	out := []byte{OpMeta}
	out = binary.LittleEndian.AppendUint64(out, uint64(r.NumNodes))
	out = binary.LittleEndian.AppendUint32(out, uint32(r.AttrLen))
	out = binary.LittleEndian.AppendUint32(out, uint32(r.Partition))
	out = binary.LittleEndian.AppendUint32(out, uint32(r.Partitions))
	return out
}

// EncodeMetaResponseV1 serializes r with the trailing protocol version —
// sent only to clients that advertised v1+ in their meta request, so a
// legacy decoder never sees the longer form.
func EncodeMetaResponseV1(r MetaResponse) []byte {
	out := EncodeMetaResponse(r)
	return binary.LittleEndian.AppendUint32(out, uint32(r.Version))
}

// DecodeMetaResponse parses an OpMeta response body, either the legacy
// 21-byte form (Version reported as 0) or the v1 25-byte form.
func DecodeMetaResponse(b []byte) (MetaResponse, error) {
	if (len(b) != 21 && len(b) != 25) || b[0] != OpMeta {
		return MetaResponse{}, fmt.Errorf("cluster: not a meta response")
	}
	r := MetaResponse{
		NumNodes:   int64(binary.LittleEndian.Uint64(b[1:])),
		AttrLen:    int(binary.LittleEndian.Uint32(b[9:])),
		Partition:  int(binary.LittleEndian.Uint32(b[13:])),
		Partitions: int(binary.LittleEndian.Uint32(b[17:])),
	}
	if len(b) == 25 {
		r.Version = int(binary.LittleEndian.Uint32(b[21:]))
	}
	return r, nil
}
