package wire

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestHeaderRoundTrip(t *testing.T) {
	cases := []Header{
		{Op: OpHello, ReqID: 1, PayloadLen: 0},
		{Op: OpArm, ReqID: 0xdeadbeef, DeadlineMicros: 12345, PayloadLen: 77},
		{Op: OpErr, ReqID: ^uint32(0), DeadlineMicros: ^uint32(0), PayloadLen: MaxPayload},
		{Op: OpRelease, ReqID: 0, PayloadLen: 8},
	}
	for _, h := range cases {
		b := AppendHeader(nil, h)
		if len(b) != HeaderSize {
			t.Fatalf("encoded header is %d bytes, want %d", len(b), HeaderSize)
		}
		got, err := DecodeHeader(b)
		if err != nil {
			t.Fatalf("decode %+v: %v", h, err)
		}
		if got != h {
			t.Fatalf("round trip: got %+v, want %+v", got, h)
		}
	}
}

func TestHeaderRejection(t *testing.T) {
	good := AppendHeader(nil, Header{Op: OpArm, ReqID: 7, PayloadLen: 4})

	short := good[:HeaderSize-1]
	if _, err := DecodeHeader(short); err == nil {
		t.Error("short header accepted")
	}

	badMagic := append([]byte(nil), good...)
	badMagic[0] = 0x00
	if _, err := DecodeHeader(badMagic); err == nil {
		t.Error("bad magic accepted")
	}

	badVersion := append([]byte(nil), good...)
	badVersion[2] = Version + 1
	_, err := DecodeHeader(badVersion)
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Errorf("bad version: got %v, want *ProtocolError", err)
	}

	oversized := append([]byte(nil), good...)
	big := uint32(MaxPayload + 1)
	oversized[12], oversized[13], oversized[14], oversized[15] = byte(big), byte(big>>8), byte(big>>16), byte(big>>24)
	if _, err := DecodeHeader(oversized); err == nil {
		t.Error("oversized payload length accepted")
	} else if !strings.Contains(err.Error(), "exceeds cap") {
		t.Errorf("oversized payload error %q does not name the cap", err)
	}
}

func TestPayloadRoundTrips(t *testing.T) {
	meta := Meta{
		ShardIndex: 2, ShardCount: 4, GlobalN: 1_000_000, ShardN: 250_000,
		Lambda: 21.5, Sigma: 382, QueryStreamSeed: 0x0123456789abcdef,
		Radius: 40.25, Codec: "int64",
	}
	if got, err := DecodeMeta(AppendMeta(nil, meta)); err != nil || got != meta {
		t.Fatalf("meta round trip: got %+v err %v", got, err)
	}

	hello := HelloReq{Codec: "vec64/32"}
	if got, err := DecodeHelloReq(AppendHelloReq(nil, hello)); err != nil || got != hello {
		t.Fatalf("hello round trip: got %+v err %v", got, err)
	}

	arm := ArmReq{PlanID: 1 << 40, Point: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	gotArm, err := DecodeArmReq(AppendArmReq(nil, arm))
	if err != nil || gotArm.PlanID != arm.PlanID || string(gotArm.Point) != string(arm.Point) {
		t.Fatalf("arm req round trip: got %+v err %v", gotArm, err)
	}

	delta := StatDelta{Buckets: 1, Points: 2, ScoreEvals: 3, BatchScored: 4, CacheHits: 5, MemoProbes: 6, FilterEvals: 7, CursorMerged: true}
	armResp := ArmResp{Est: math.Pi, K0: 64, Stats: delta}
	if got, err := DecodeArmResp(AppendArmResp(nil, armResp)); err != nil || got != armResp {
		t.Fatalf("arm resp round trip: got %+v err %v", got, err)
	}

	seg := SegReq{PlanID: 9, H: 3, K: 8}
	if got, err := DecodeSegReq(AppendSegReq(nil, seg)); err != nil || got != seg {
		t.Fatalf("seg req round trip: got %+v err %v", got, err)
	}
	segResp := SegResp{Count: 12, Stats: delta}
	if got, err := DecodeSegResp(AppendSegResp(nil, segResp)); err != nil || got != segResp {
		t.Fatalf("seg resp round trip: got %+v err %v", got, err)
	}

	pick := PickReq{PlanID: 9, Idx: 11}
	if got, err := DecodePickReq(AppendPickReq(nil, pick)); err != nil || got != pick {
		t.Fatalf("pick req round trip: got %+v err %v", got, err)
	}
	pickResp := PickResp{ID: -2}
	if got, err := DecodePickResp(AppendPickResp(nil, pickResp)); err != nil || got != pickResp {
		t.Fatalf("pick resp round trip: got %+v err %v", got, err)
	}

	rel := ReleaseReq{PlanID: ^uint64(0)}
	if got, err := DecodeReleaseReq(AppendReleaseReq(nil, rel)); err != nil || got != rel {
		t.Fatalf("release round trip: got %+v err %v", got, err)
	}

	recs := []HealthRecord{
		{Shard: 0, Healthy: true, Failures: 1, Skipped: 2, Probes: 3, Readmissions: 4},
		{Shard: 1, Healthy: false, Failures: 9},
	}
	gotRecs, err := DecodeHealthResp(AppendHealthResp(nil, recs))
	if err != nil || len(gotRecs) != len(recs) {
		t.Fatalf("health round trip: got %+v err %v", gotRecs, err)
	}
	for i := range recs {
		if gotRecs[i] != recs[i] {
			t.Fatalf("health record %d: got %+v, want %+v", i, gotRecs[i], recs[i])
		}
	}

	re, err := DecodeErrResp(AppendErrResp(nil, CodeDraining, "going away"))
	if err != nil || re.Code != CodeDraining || re.Msg != "going away" {
		t.Fatalf("err resp round trip: got %+v err %v", re, err)
	}
}

// TestPayloadTruncationTyped walks every decoder over every strict
// prefix of a valid payload: all must reject with a typed
// *ProtocolError and never panic.
func TestPayloadTruncationTyped(t *testing.T) {
	delta := StatDelta{Buckets: 1, CursorMerged: true}
	payloads := map[string][]byte{
		"meta":    AppendMeta(nil, Meta{ShardIndex: 1, ShardCount: 2, GlobalN: 10, ShardN: 5, Lambda: 4, Sigma: 16, QueryStreamSeed: 7, Radius: 2, Codec: "int64"}),
		"hello":   AppendHelloReq(nil, HelloReq{Codec: "int64"}),
		"armReq":  AppendArmReq(nil, ArmReq{PlanID: 1, Point: []byte{1, 2, 3}}),
		"armResp": AppendArmResp(nil, ArmResp{Est: 1, K0: 2, Stats: delta}),
		"segReq":  AppendSegReq(nil, SegReq{PlanID: 1, H: 0, K: 4}),
		"segResp": AppendSegResp(nil, SegResp{Count: 3, Stats: delta}),
		"pickReq": AppendPickReq(nil, PickReq{PlanID: 1, Idx: 2}),
		"health":  AppendHealthResp(nil, []HealthRecord{{Shard: 0, Healthy: true}}),
		"err":     AppendErrResp(nil, CodeInternal, "boom"),
	}
	decoders := map[string]func([]byte) error{
		"meta":    func(b []byte) error { _, err := DecodeMeta(b); return err },
		"hello":   func(b []byte) error { _, err := DecodeHelloReq(b); return err },
		"armReq":  func(b []byte) error { _, err := DecodeArmReq(b); return err },
		"armResp": func(b []byte) error { _, err := DecodeArmResp(b); return err },
		"segReq":  func(b []byte) error { _, err := DecodeSegReq(b); return err },
		"segResp": func(b []byte) error { _, err := DecodeSegResp(b); return err },
		"pickReq": func(b []byte) error { _, err := DecodePickReq(b); return err },
		"health":  func(b []byte) error { _, err := DecodeHealthResp(b); return err },
		"err":     func(b []byte) error { _, err := DecodeErrResp(b); return err },
	}
	for name, full := range payloads {
		dec := decoders[name]
		if dec(full) != nil {
			t.Fatalf("%s: full payload rejected", name)
		}
		for cut := 0; cut < len(full); cut++ {
			err := dec(full[:cut])
			if err == nil {
				t.Fatalf("%s: %d-byte prefix of %d accepted", name, cut, len(full))
			}
			var pe *ProtocolError
			if !errors.As(err, &pe) {
				t.Fatalf("%s truncated at %d: got %T (%v), want *ProtocolError", name, cut, err, err)
			}
		}
		// Trailing garbage is as malformed as truncation.
		if err := dec(append(append([]byte(nil), full...), 0xEE)); err == nil {
			t.Fatalf("%s: trailing garbage accepted", name)
		}
	}
}

// TestHealthCountBomb pins the pre-allocation guard: a health payload
// whose declared record count cannot fit its byte length must be
// rejected before any proportional allocation.
func TestHealthCountBomb(t *testing.T) {
	bomb := appendU32(nil, 1<<30)
	if _, err := DecodeHealthResp(bomb); err == nil {
		t.Fatal("impossible health record count accepted")
	}
	// 400 bytes after the count hold 6 records of 61 bytes, not 100: the
	// count must be refused before any record is allocated, not after
	// the records run out.
	short := append(appendU32(nil, 100), make([]byte, 400)...)
	_, err := DecodeHealthResp(short)
	var pe *ProtocolError
	if !errors.As(err, &pe) || !strings.Contains(pe.Reason, "impossible") {
		t.Fatalf("100 records in a %d-byte payload: got %v, want the impossible-count ProtocolError", len(short), err)
	}
}

func TestCodecRoundTrips(t *testing.T) {
	ic := IntCodec{}
	for _, v := range []int{0, 1, -1, 1 << 40, -(1 << 40)} {
		got, err := ic.Decode(ic.Append(nil, v))
		if err != nil || got != v {
			t.Fatalf("int codec: got %d err %v, want %d", got, err, v)
		}
	}
	vc := VecCodec{Dim: 3}
	vec := []float64{1.5, -2.25, math.Inf(1)}
	got, err := vc.Decode(vc.Append(nil, vec))
	if err != nil {
		t.Fatal(err)
	}
	for i := range vec {
		if got[i] != vec[i] {
			t.Fatalf("vec codec: got %v, want %v", got, vec)
		}
	}
	if _, err := vc.Decode(make([]byte, 8*2)); err == nil {
		t.Error("wrong-dimension vector accepted")
	}
	if ic.Name() == vc.Name() {
		t.Error("codec names collide")
	}
}

// Fuzz targets: every decoder must return (value, error) on arbitrary
// bytes — never panic, never read out of bounds.

func FuzzDecodeHeader(f *testing.F) {
	f.Add(AppendHeader(nil, Header{Op: OpArm, ReqID: 3, PayloadLen: 9}))
	f.Add(make([]byte, HeaderSize))
	f.Fuzz(func(t *testing.T, b []byte) {
		h, err := DecodeHeader(b)
		if err == nil && h.PayloadLen > MaxPayload {
			t.Fatalf("accepted payload length %d over cap", h.PayloadLen)
		}
	})
}

func FuzzDecodeMeta(f *testing.F) {
	f.Add(AppendMeta(nil, Meta{ShardIndex: 1, ShardCount: 2, GlobalN: 100, ShardN: 50, Lambda: 4, Sigma: 16, QueryStreamSeed: 9, Radius: 3, Codec: "int64"}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeMeta(b)
		if err == nil {
			// Anything accepted must re-encode to the same bytes (the
			// layout has exactly one encoding).
			if re := AppendMeta(nil, m); string(re) != string(b) {
				t.Fatalf("accepted meta does not re-encode canonically")
			}
		}
	})
}

func FuzzDecodeArmResp(f *testing.F) {
	f.Add(AppendArmResp(nil, ArmResp{Est: 2, K0: 8, Stats: StatDelta{Buckets: 1}}))
	f.Fuzz(func(t *testing.T, b []byte) {
		_, _ = DecodeArmResp(b)
	})
}

func FuzzDecodeHealthResp(f *testing.F) {
	f.Add(AppendHealthResp(nil, []HealthRecord{{Shard: 1, Healthy: true, Probes: 2}}))
	f.Add(appendU32(nil, 1<<31))
	f.Fuzz(func(t *testing.T, b []byte) {
		_, _ = DecodeHealthResp(b)
	})
}

func FuzzDecodeErrResp(f *testing.F) {
	f.Add(AppendErrResp(nil, CodeMalformed, "x"))
	f.Fuzz(func(t *testing.T, b []byte) {
		_, _ = DecodeErrResp(b)
	})
}
