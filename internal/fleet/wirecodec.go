package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"exterminator/internal/fleet/codec"
)

// Codec is the wire-encoding seam every fleet tier talks through: one
// implementation per negotiated content type, over the same wire
// structs. JSONCodec is the v1 protocol unchanged; V2Codec is the
// binary framing (internal/fleet/codec, spec in docs/PROTOCOL.md "v2
// binary framing"). Negotiation is by content type: requests declare
// their body's codec in Content-Type and their acceptable response
// codecs in Accept; servers answer v1 JSON unless the request
// explicitly accepts v2, so a v1-only peer at either end of any
// connection degrades the pair to JSON and nothing breaks.
type Codec interface {
	// ContentType is the media type this codec negotiates under.
	ContentType() string
	// EncodeBatch appends an observation upload body to buf; the
	// returned bytes alias buf.
	EncodeBatch(buf *codec.Buffer, b *ObservationBatch) ([]byte, error)
	// DecodeBatch decodes an observation upload body.
	DecodeBatch(data []byte) (*ObservationBatch, error)
	// EncodePatchSet appends a GET /v1/patches response body to buf.
	EncodePatchSet(buf *codec.Buffer, w *WirePatchSet) ([]byte, error)
	// DecodePatchSet decodes a GET /v1/patches response body.
	DecodePatchSet(data []byte) (*WirePatchSet, error)
	// EncodeDelta appends a GET /v1/deltas response body to buf.
	EncodeDelta(buf *codec.Buffer, d *SnapshotDelta) ([]byte, error)
	// DecodeDelta decodes a GET /v1/deltas response body.
	DecodeDelta(data []byte) (*SnapshotDelta, error)
}

// JSONCodec is the v1 wire protocol: one JSON document per body,
// exactly the bytes pre-v2 clients and servers exchanged.
var JSONCodec Codec = jsonCodec{}

// V2Codec is the binary wire protocol (application/x-exterminator-v2).
var V2Codec Codec = v2Codec{}

// CodecForContentType returns the codec a Content-Type (or Accept
// entry) selects: V2Codec for the v2 media type, JSONCodec for
// everything else — unknown types fall back to v1, matching the
// protocol rule that JSON is the floor every peer speaks.
func CodecForContentType(ct string) Codec {
	if strings.HasPrefix(strings.TrimSpace(ct), codec.ContentTypeV2) {
		return V2Codec
	}
	return JSONCodec
}

// AcceptsV2 reports whether an Accept header value asks for v2 frames.
func AcceptsV2(accept string) bool {
	return strings.Contains(accept, codec.ContentTypeV2)
}

type jsonCodec struct{}

func (jsonCodec) ContentType() string { return "application/json" }

// appendJSON marshals v onto buf with the trailing newline
// json.Encoder always emitted, keeping v1 bodies byte-for-byte stable.
func appendJSON(buf *codec.Buffer, v any) ([]byte, error) {
	start := len(buf.B)
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	buf.B = append(buf.B, data...)
	buf.B = append(buf.B, '\n')
	return buf.B[start:], nil
}

func (jsonCodec) EncodeBatch(buf *codec.Buffer, b *ObservationBatch) ([]byte, error) {
	return appendJSON(buf, b)
}

func (jsonCodec) DecodeBatch(data []byte) (*ObservationBatch, error) {
	var b ObservationBatch
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("fleet: decode batch: %w", err)
	}
	return &b, nil
}

func (jsonCodec) EncodePatchSet(buf *codec.Buffer, w *WirePatchSet) ([]byte, error) {
	return appendJSON(buf, w)
}

func (jsonCodec) DecodePatchSet(data []byte) (*WirePatchSet, error) {
	var w WirePatchSet
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("fleet: decode patch set: %w", err)
	}
	return &w, nil
}

func (jsonCodec) EncodeDelta(buf *codec.Buffer, d *SnapshotDelta) ([]byte, error) {
	return appendJSON(buf, d)
}

func (jsonCodec) DecodeDelta(data []byte) (*SnapshotDelta, error) {
	var d SnapshotDelta
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("fleet: decode delta: %w", err)
	}
	return &d, nil
}

type v2Codec struct{}

func (v2Codec) ContentType() string { return codec.ContentTypeV2 }

func (v2Codec) EncodeBatch(buf *codec.Buffer, b *ObservationBatch) ([]byte, error) {
	return codec.EncodeBatch(buf, &codec.Batch{
		Client:      b.Client,
		BatchID:     b.BatchID,
		RingVersion: b.RingVersion,
		Snapshot:    b.Snapshot,
	}), nil
}

func (v2Codec) DecodeBatch(data []byte) (*ObservationBatch, error) {
	cb, err := codec.DecodeBatch(data)
	if err != nil {
		return nil, err
	}
	return &ObservationBatch{
		Client:      cb.Client,
		BatchID:     cb.BatchID,
		RingVersion: cb.RingVersion,
		Snapshot:    cb.Snapshot,
	}, nil
}

func (v2Codec) EncodePatchSet(buf *codec.Buffer, w *WirePatchSet) ([]byte, error) {
	return codec.EncodePatches(buf, patchSetToCodec(w)), nil
}

func (v2Codec) DecodePatchSet(data []byte) (*WirePatchSet, error) {
	ps, err := codec.DecodePatches(data)
	if err != nil {
		return nil, err
	}
	return patchSetFromCodec(ps), nil
}

func (v2Codec) EncodeDelta(buf *codec.Buffer, d *SnapshotDelta) ([]byte, error) {
	return codec.EncodeDelta(buf, deltaToCodec(d)), nil
}

func (v2Codec) DecodeDelta(data []byte) (*SnapshotDelta, error) {
	cd, err := codec.DecodeDelta(data)
	if err != nil {
		return nil, err
	}
	return deltaFromCodec(cd), nil
}

// The conversions between the fleet wire structs and the codec's
// neutral forms are shape-preserving field copies: the codec package
// cannot import fleet (fleet imports it), so each side owns its own
// struct and the seam pays a few slice copies, never a re-encode.

func patchSetToCodec(w *WirePatchSet) *codec.PatchSet {
	ps := &codec.PatchSet{Version: w.Version, Epoch: w.Epoch}
	if len(w.Pads) > 0 {
		ps.Pads = make([]codec.PadEntry, len(w.Pads))
		for i, e := range w.Pads {
			ps.Pads[i] = codec.PadEntry{Site: e.Site, Pad: e.Pad}
		}
	}
	if len(w.FrontPads) > 0 {
		ps.FrontPads = make([]codec.PadEntry, len(w.FrontPads))
		for i, e := range w.FrontPads {
			ps.FrontPads[i] = codec.PadEntry{Site: e.Site, Pad: e.Pad}
		}
	}
	if len(w.Deferrals) > 0 {
		ps.Deferrals = make([]codec.DeferralEntry, len(w.Deferrals))
		for i, e := range w.Deferrals {
			ps.Deferrals[i] = codec.DeferralEntry{Alloc: e.Alloc, Free: e.Free, Deferral: e.Deferral}
		}
	}
	return ps
}

func patchSetFromCodec(ps *codec.PatchSet) *WirePatchSet {
	w := &WirePatchSet{Version: ps.Version, Epoch: ps.Epoch}
	if len(ps.Pads) > 0 {
		w.Pads = make([]PadEntry, len(ps.Pads))
		for i, e := range ps.Pads {
			w.Pads[i] = PadEntry{Site: e.Site, Pad: e.Pad}
		}
	}
	if len(ps.FrontPads) > 0 {
		w.FrontPads = make([]PadEntry, len(ps.FrontPads))
		for i, e := range ps.FrontPads {
			w.FrontPads[i] = PadEntry{Site: e.Site, Pad: e.Pad}
		}
	}
	if len(ps.Deferrals) > 0 {
		w.Deferrals = make([]DeferralEntry, len(ps.Deferrals))
		for i, e := range ps.Deferrals {
			w.Deferrals[i] = DeferralEntry{Alloc: e.Alloc, Free: e.Free, Deferral: e.Deferral}
		}
	}
	return w
}

func deltaToCodec(d *SnapshotDelta) *codec.Delta {
	cd := &codec.Delta{
		Epoch:    d.Epoch,
		Seq:      d.Seq,
		Full:     d.Full,
		Snapshot: d.Snapshot,
		ReqIDs:   d.ReqIDs,
	}
	if len(d.Ops) > 0 {
		cd.Ops = make([]codec.DeltaOp, len(d.Ops))
		for i, op := range d.Ops {
			cd.Ops[i] = codec.DeltaOp{Evict: op.Evict, Snapshot: op.Snapshot}
		}
	}
	return cd
}

func deltaFromCodec(cd *codec.Delta) *SnapshotDelta {
	d := &SnapshotDelta{
		Epoch:    cd.Epoch,
		Seq:      cd.Seq,
		Full:     cd.Full,
		Snapshot: cd.Snapshot,
		ReqIDs:   cd.ReqIDs,
	}
	if len(cd.Ops) > 0 {
		d.Ops = make([]DeltaOp, len(cd.Ops))
		for i, op := range cd.Ops {
			d.Ops[i] = DeltaOp{Evict: op.Evict, Snapshot: op.Snapshot}
		}
	}
	return d
}

// writePatchSet answers a patch poll with the codec the request's
// Accept header negotiates: a v2 frame when it names the v2 media
// type, the v1 JSON document otherwise — which is why a v1 poller's
// responses stay byte-for-byte what they always were.
func writePatchSet(w http.ResponseWriter, r *http.Request, wire *WirePatchSet) {
	if !AcceptsV2(r.Header.Get("Accept")) {
		WriteJSON(w, wire)
		return
	}
	buf := codec.GetBuffer()
	defer codec.PutBuffer(buf)
	frame, err := V2Codec.EncodePatchSet(buf, wire)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", codec.ContentTypeV2)
	w.Write(frame)
}

// WriteSnapshotDelta answers a delta poll with the negotiated codec
// (see writePatchSet).
func WriteSnapshotDelta(w http.ResponseWriter, r *http.Request, d *SnapshotDelta) {
	if !AcceptsV2(r.Header.Get("Accept")) {
		WriteJSON(w, d)
		return
	}
	buf := codec.GetBuffer()
	defer codec.PutBuffer(buf)
	frame, err := V2Codec.EncodeDelta(buf, d)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", codec.ContentTypeV2)
	w.Write(frame)
}

// maxResponseBytes bounds client-side reads of v2 response bodies (the
// JSON paths stream through json.Decoder; v2 frames are decoded from
// one in-memory buffer, so the read must be capped first).
const maxResponseBytes = 64 << 20

// DecodePatchSetResponse decodes a GET /v1/patches response by its
// Content-Type: a v2 frame if the server negotiated one, the v1 JSON
// document otherwise. Shared by fleet.Client and the cluster replica's
// poller.
func DecodePatchSetResponse(resp *http.Response) (*WirePatchSet, error) {
	if CodecForContentType(resp.Header.Get("Content-Type")) == V2Codec {
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
		if err != nil {
			return nil, fmt.Errorf("fleet: read patch set: %w", err)
		}
		return V2Codec.DecodePatchSet(data)
	}
	return decodeWire(resp.Body)
}

// DecodeSnapshotDeltaResponse decodes a GET /v1/deltas response by its
// Content-Type (see DecodePatchSetResponse).
func DecodeSnapshotDeltaResponse(resp *http.Response) (*SnapshotDelta, error) {
	if CodecForContentType(resp.Header.Get("Content-Type")) == V2Codec {
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
		if err != nil {
			return nil, fmt.Errorf("fleet: read delta: %w", err)
		}
		return V2Codec.DecodeDelta(data)
	}
	var d SnapshotDelta
	dec := json.NewDecoder(resp.Body)
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("fleet: decode delta: %w", err)
	}
	return &d, nil
}
