package wire

import (
	"fmt"
	"math"
)

// Payload layouts. Every message body is fixed-width little-endian
// fields (strings and point bytes are u32-length-prefixed). Encoders
// append into a caller-owned buffer; decoders walk the payload slice in
// place with a cursor and fail with a typed *ProtocolError on
// truncation, so a garbage frame can never read past its bounds or
// allocate more than its announced (capped) length.

// cursor is the in-place payload decoder. The first out-of-bounds read
// latches err; subsequent reads return zero values, so decode funcs
// check c.err once at the end.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) fail(what string) {
	if c.err == nil {
		c.err = &ProtocolError{Reason: fmt.Sprintf("truncated payload: %s at offset %d of %d", what, c.off, len(c.b))}
	}
}

func (c *cursor) u8(what string) uint8 {
	if c.err != nil || c.off+1 > len(c.b) {
		c.fail(what)
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *cursor) u16(what string) uint16 {
	if c.err != nil || c.off+2 > len(c.b) {
		c.fail(what)
		return 0
	}
	v := uint16(c.b[c.off]) | uint16(c.b[c.off+1])<<8
	c.off += 2
	return v
}

func (c *cursor) u32(what string) uint32 {
	if c.err != nil || c.off+4 > len(c.b) {
		c.fail(what)
		return 0
	}
	b := c.b[c.off:]
	v := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	c.off += 4
	return v
}

func (c *cursor) u64(what string) uint64 {
	if c.err != nil || c.off+8 > len(c.b) {
		c.fail(what)
		return 0
	}
	b := c.b[c.off:]
	v := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
	c.off += 8
	return v
}

func (c *cursor) f64(what string) float64 { return math.Float64frombits(c.u64(what)) }

// bytes reads a u32-length-prefixed byte field, returning a sub-slice
// of the payload (no copy).
func (c *cursor) bytes(what string) []byte {
	n := int(c.u32(what))
	if c.err != nil {
		return nil
	}
	if c.off+n > len(c.b) {
		c.fail(what)
		return nil
	}
	v := c.b[c.off : c.off+n : c.off+n]
	c.off += n
	return v
}

func (c *cursor) str(what string) string { return string(c.bytes(what)) }

// done returns the latched decode error, adding a trailing-garbage check:
// a payload longer than its message is as malformed as a short one.
func (c *cursor) done() error {
	if c.err == nil && c.off != len(c.b) {
		c.err = &ProtocolError{Reason: fmt.Sprintf("payload has %d trailing bytes after offset %d", len(c.b)-c.off, c.off)}
	}
	return c.err
}

// Append helpers (all little-endian).

func appendU16(dst []byte, v uint16) []byte { return append(dst, byte(v), byte(v>>8)) }

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(dst []byte, v uint64) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func appendF64(dst []byte, v float64) []byte { return appendU64(dst, math.Float64bits(v)) }

func appendBytes(dst, b []byte) []byte {
	dst = appendU32(dst, uint32(len(b)))
	return append(dst, b...)
}

func appendStr(dst []byte, s string) []byte {
	dst = appendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// StatDelta carries the per-op increments to the client's QueryStats:
// the server executes each op against a fresh local stats record and
// ships the difference, so remote queries charge the caller's counters
// exactly like in-process ones.
type StatDelta struct {
	// Buckets is the BucketsScanned increment.
	Buckets uint32
	// Points is the PointsInspected increment.
	Points uint32
	// ScoreEvals is the ScoreEvals increment.
	ScoreEvals uint32
	// BatchScored is the BatchScored increment.
	BatchScored uint32
	// CacheHits is the ScoreCacheHits increment.
	CacheHits uint32
	// MemoProbes is the MemoProbes increment.
	MemoProbes uint32
	// FilterEvals is the FilterEvals increment.
	FilterEvals uint32
	// CursorMerged reports the op materialized the merged cursor.
	CursorMerged bool
}

func appendStatDelta(dst []byte, d StatDelta) []byte {
	dst = appendU32(dst, d.Buckets)
	dst = appendU32(dst, d.Points)
	dst = appendU32(dst, d.ScoreEvals)
	dst = appendU32(dst, d.BatchScored)
	dst = appendU32(dst, d.CacheHits)
	dst = appendU32(dst, d.MemoProbes)
	dst = appendU32(dst, d.FilterEvals)
	return appendBool(dst, d.CursorMerged)
}

func (c *cursor) statDelta() StatDelta {
	return StatDelta{
		Buckets:      c.u32("stat.buckets"),
		Points:       c.u32("stat.points"),
		ScoreEvals:   c.u32("stat.scoreEvals"),
		BatchScored:  c.u32("stat.batchScored"),
		CacheHits:    c.u32("stat.cacheHits"),
		MemoProbes:   c.u32("stat.memoProbes"),
		FilterEvals:  c.u32("stat.filterEvals"),
		CursorMerged: c.u8("stat.cursorMerged") != 0,
	}
}

// HelloReq is the client half of the handshake.
type HelloReq struct {
	// Codec names the client's point codec; the server rejects a
	// mismatch with CodeBadCodec.
	Codec string
}

// AppendHelloReq encodes m into dst.
func AppendHelloReq(dst []byte, m HelloReq) []byte { return appendStr(dst, m.Codec) }

// DecodeHelloReq decodes a HelloReq payload.
func DecodeHelloReq(b []byte) (HelloReq, error) {
	c := cursor{b: b}
	m := HelloReq{Codec: c.str("hello.codec")}
	return m, c.done()
}

// Meta is the server's build identity, returned by the handshake. The
// client validates it against every other shard's before serving
// queries: mismatched global counts, λ, Σ, or query-stream seeds would
// silently break the uniformity and determinism contracts, so they fail
// the dial instead.
type Meta struct {
	// ShardIndex is this server's position in the fleet.
	ShardIndex int
	// ShardCount is the fleet size the server was built for.
	ShardCount int
	// GlobalN is the total indexed point count across the fleet —
	// options were resolved against it, pinning the shared λ and Σ.
	GlobalN int
	// ShardN is this shard's own indexed point count.
	ShardN int
	// Lambda is the resolved acceptance normalizer λ.
	Lambda float64
	// Sigma is the resolved halving budget Σ.
	Sigma int
	// QueryStreamSeed is the shard's per-query randomness seed; the
	// client derives its single query stream from shard 0's value.
	QueryStreamSeed uint64
	// Radius is the build radius r.
	Radius float64
	// Codec names the server's point codec.
	Codec string
}

// AppendMeta encodes m into dst.
func AppendMeta(dst []byte, m Meta) []byte {
	dst = appendU32(dst, uint32(m.ShardIndex))
	dst = appendU32(dst, uint32(m.ShardCount))
	dst = appendU64(dst, uint64(m.GlobalN))
	dst = appendU64(dst, uint64(m.ShardN))
	dst = appendF64(dst, m.Lambda)
	dst = appendU32(dst, uint32(m.Sigma))
	dst = appendU64(dst, m.QueryStreamSeed)
	dst = appendF64(dst, m.Radius)
	return appendStr(dst, m.Codec)
}

// DecodeMeta decodes a Meta payload.
func DecodeMeta(b []byte) (Meta, error) {
	c := cursor{b: b}
	m := Meta{
		ShardIndex:      int(c.u32("meta.shardIndex")),
		ShardCount:      int(c.u32("meta.shardCount")),
		GlobalN:         int(c.u64("meta.globalN")),
		ShardN:          int(c.u64("meta.shardN")),
		Lambda:          c.f64("meta.lambda"),
		Sigma:           int(c.u32("meta.sigma")),
		QueryStreamSeed: c.u64("meta.queryStreamSeed"),
		Radius:          c.f64("meta.radius"),
		Codec:           c.str("meta.codec"),
	}
	return m, c.done()
}

// ArmReq arms a server-side plan for a new logical query.
type ArmReq struct {
	// PlanID is the client-assigned plan handle, unique per connection.
	PlanID uint64
	// Point is the codec-encoded query point.
	Point []byte
}

// AppendArmReq encodes m into dst.
func AppendArmReq(dst []byte, m ArmReq) []byte {
	dst = appendU64(dst, m.PlanID)
	return appendBytes(dst, m.Point)
}

// DecodeArmReq decodes an ArmReq payload. Point aliases b.
func DecodeArmReq(b []byte) (ArmReq, error) {
	c := cursor{b: b}
	m := ArmReq{PlanID: c.u64("arm.planID"), Point: c.bytes("arm.point")}
	return m, c.done()
}

// ArmResp mirrors the armed plan's estimate state back to the client,
// which reconstructs the plan arithmetic (k, halving, segment picks)
// locally from ŝ and k0.
type ArmResp struct {
	// Est is the shard's near-count estimate ŝ_j.
	Est float64
	// K0 is the estimate-derived initial segment count.
	K0 int
	// Stats is the resolve + estimate work performed.
	Stats StatDelta
}

// AppendArmResp encodes m into dst.
func AppendArmResp(dst []byte, m ArmResp) []byte {
	dst = appendF64(dst, m.Est)
	dst = appendU32(dst, uint32(m.K0))
	return appendStatDelta(dst, m.Stats)
}

// DecodeArmResp decodes an ArmResp payload.
func DecodeArmResp(b []byte) (ArmResp, error) {
	c := cursor{b: b}
	m := ArmResp{Est: c.f64("arm.est"), K0: int(c.u32("arm.k0"))}
	m.Stats = c.statDelta()
	return m, c.done()
}

// SegReq asks for the near report of segment H of the plan's current
// K-segment pool. K travels with the request because the client owns
// the halving schedule — the server recomputes the segment bounds from
// (H, K) exactly as the in-process plan does.
type SegReq struct {
	// PlanID is the armed plan handle.
	PlanID uint64
	// H is the segment index, 0 ≤ H < K.
	H int
	// K is the client's current segment count for the plan.
	K int
}

// AppendSegReq encodes m into dst.
func AppendSegReq(dst []byte, m SegReq) []byte {
	dst = appendU64(dst, m.PlanID)
	dst = appendU32(dst, uint32(m.H))
	return appendU32(dst, uint32(m.K))
}

// DecodeSegReq decodes a SegReq payload.
func DecodeSegReq(b []byte) (SegReq, error) {
	c := cursor{b: b}
	m := SegReq{PlanID: c.u64("seg.planID"), H: int(c.u32("seg.h")), K: int(c.u32("seg.k"))}
	return m, c.done()
}

// SegResp reports the segment's distinct-near count. The ids stay on
// the server (retained for OpPick) — only the count crosses the wire,
// which is all the acceptance arithmetic needs.
type SegResp struct {
	// Count is the number of distinct near points in the segment.
	Count int
	// Stats is the scan work performed.
	Stats StatDelta
}

// AppendSegResp encodes m into dst.
func AppendSegResp(dst []byte, m SegResp) []byte {
	dst = appendU32(dst, uint32(m.Count))
	return appendStatDelta(dst, m.Stats)
}

// DecodeSegResp decodes a SegResp payload.
func DecodeSegResp(b []byte) (SegResp, error) {
	c := cursor{b: b}
	m := SegResp{Count: int(c.u32("seg.count"))}
	m.Stats = c.statDelta()
	return m, c.done()
}

// PickReq dereferences the client-drawn index into the plan's last
// segment report. The index is drawn on the client from the query
// stream, so the server holds no randomness at all.
type PickReq struct {
	// PlanID is the armed plan handle.
	PlanID uint64
	// Idx indexes the last SegmentNear report, 0 ≤ Idx < Count.
	Idx int
}

// AppendPickReq encodes m into dst.
func AppendPickReq(dst []byte, m PickReq) []byte {
	dst = appendU64(dst, m.PlanID)
	return appendU32(dst, uint32(m.Idx))
}

// DecodePickReq decodes a PickReq payload.
func DecodePickReq(b []byte) (PickReq, error) {
	c := cursor{b: b}
	m := PickReq{PlanID: c.u64("pick.planID"), Idx: int(c.u32("pick.idx"))}
	return m, c.done()
}

// PickResp carries the picked shard-local near id.
type PickResp struct {
	// ID is the shard-local point id.
	ID int32
}

// AppendPickResp encodes m into dst.
func AppendPickResp(dst []byte, m PickResp) []byte {
	return appendU32(dst, uint32(m.ID))
}

// DecodePickResp decodes a PickResp payload.
func DecodePickResp(b []byte) (PickResp, error) {
	c := cursor{b: b}
	m := PickResp{ID: int32(c.u32("pick.id"))}
	return m, c.done()
}

// ReleaseReq releases a server-side plan (one-way; no response).
type ReleaseReq struct {
	// PlanID is the plan handle to release.
	PlanID uint64
}

// AppendReleaseReq encodes m into dst.
func AppendReleaseReq(dst []byte, m ReleaseReq) []byte {
	return appendU64(dst, m.PlanID)
}

// DecodeReleaseReq decodes a ReleaseReq payload.
func DecodeReleaseReq(b []byte) (ReleaseReq, error) {
	c := cursor{b: b}
	m := ReleaseReq{PlanID: c.u64("release.planID")}
	return m, c.done()
}

// HealthRecord is one shard's entry in a health snapshot — the wire
// image of the shard layer's per-shard health registry state.
type HealthRecord struct {
	// Shard is the shard index.
	Shard int
	// Healthy reports the shard is currently admitted.
	Healthy bool
	// Failures counts budget-exhausted operations.
	Failures uint64
	// Skipped counts queries that bypassed the shard while down.
	Skipped uint64
	// Probes counts re-admission probe attempts.
	Probes uint64
	// Readmissions counts down→healthy transitions.
	Readmissions uint64
	// Sheds counts requests the serving side shed because their
	// deadline expired before execution. Stamped by the server for its
	// own shard; zero in client-side snapshots.
	Sheds uint64
	// DrainsRefused counts arm requests refused while the server was
	// draining. Stamped by the server for its own shard.
	DrainsRefused uint64
	// ActivePlans is the server's armed, unreleased plan count at
	// snapshot time (the drain gauge). Stamped by the server.
	ActivePlans uint32
	// ActiveConns is the server's live connection count at snapshot
	// time. Stamped by the server.
	ActiveConns uint32
}

// AppendHealthResp encodes a health snapshot into dst.
func AppendHealthResp(dst []byte, recs []HealthRecord) []byte {
	dst = appendU32(dst, uint32(len(recs)))
	for _, r := range recs {
		dst = appendU32(dst, uint32(r.Shard))
		dst = appendBool(dst, r.Healthy)
		dst = appendU64(dst, r.Failures)
		dst = appendU64(dst, r.Skipped)
		dst = appendU64(dst, r.Probes)
		dst = appendU64(dst, r.Readmissions)
		dst = appendU64(dst, r.Sheds)
		dst = appendU64(dst, r.DrainsRefused)
		dst = appendU32(dst, r.ActivePlans)
		dst = appendU32(dst, r.ActiveConns)
	}
	return dst
}

// healthRecordSize is the encoded size of one HealthRecord: shard (4),
// healthy (1), six u64 counters (48), active plans and conns (8).
const healthRecordSize = 61

// DecodeHealthResp decodes a health snapshot payload.
func DecodeHealthResp(b []byte) ([]HealthRecord, error) {
	c := cursor{b: b}
	n := int(c.u32("health.count"))
	if c.err == nil && n > (len(b)-4)/healthRecordSize {
		// The records after the count cannot fit the payload, so reject
		// before allocating attacker-chosen capacity.
		return nil, &ProtocolError{Reason: fmt.Sprintf("health record count %d impossible for %d-byte payload", n, len(b))}
	}
	recs := make([]HealthRecord, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, HealthRecord{
			Shard:         int(c.u32("health.shard")),
			Healthy:       c.u8("health.healthy") != 0,
			Failures:      c.u64("health.failures"),
			Skipped:       c.u64("health.skipped"),
			Probes:        c.u64("health.probes"),
			Readmissions:  c.u64("health.readmits"),
			Sheds:         c.u64("health.sheds"),
			DrainsRefused: c.u64("health.drainsRefused"),
			ActivePlans:   c.u32("health.activePlans"),
			ActiveConns:   c.u32("health.activeConns"),
		})
	}
	return recs, c.done()
}

// AppendErrResp encodes a typed error response body into dst.
func AppendErrResp(dst []byte, code Code, msg string) []byte {
	dst = appendU16(dst, uint16(code))
	return appendStr(dst, msg)
}

// DecodeErrResp decodes an OpErr payload into a *RemoteError.
func DecodeErrResp(b []byte) (*RemoteError, error) {
	c := cursor{b: b}
	e := &RemoteError{Code: Code(c.u16("err.code")), Msg: c.str("err.msg")}
	if err := c.done(); err != nil {
		return nil, err
	}
	return e, nil
}
