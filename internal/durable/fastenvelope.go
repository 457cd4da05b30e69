package durable

import (
	"encoding/base64"

	"censysmap/internal/journal"
)

// Fast envelope decode for the batched recovery path.
//
// marshalEnvelope always emits one of three fixed byte shapes (encoding/json
// over fixed structs: declared field order, no whitespace, omitempty payload).
// parseFast scans exactly those shapes with monotone cursors — no reflection,
// no per-record envelope allocation — and bails out to the encoding/json
// decoder on ANY deviation: reordered keys, escape sequences, non-ASCII,
// numeric overflow, bad base64. The fallback guarantees decode results and
// error text stay identical to an encoding/json-only decode; the envelope
// differential suite and the chaos-disk gate hold the two paths equal.

// envSpan is a monotone cursor over one record payload.
type envSpan struct {
	b []byte
	i int
}

// lit consumes the exact literal p, or reports false without advancing past
// a partial match (callers treat false as "try the next shape / fall back").
func (s *envSpan) lit(p string) bool {
	if len(s.b)-s.i < len(p) || string(s.b[s.i:s.i+len(p)]) != p {
		return false
	}
	s.i += len(p)
	return true
}

// u64 consumes a canonical JSON integer (no sign, no leading zeros) with
// overflow detection.
func (s *envSpan) u64() (uint64, bool) {
	start := s.i
	var n uint64
	for s.i < len(s.b) {
		c := s.b[s.i]
		if c < '0' || c > '9' {
			break
		}
		d := uint64(c - '0')
		const max = 1<<64 - 1
		if n > max/10 || n*10 > max-d {
			return 0, false
		}
		n = n*10 + d
		s.i++
	}
	if s.i == start || (s.b[start] == '0' && s.i-start > 1) {
		return 0, false
	}
	return n, true
}

// i64 consumes an optionally-signed canonical JSON integer. Magnitudes at
// the int64 boundary fall back to encoding/json rather than risk an edge.
func (s *envSpan) i64() (int64, bool) {
	neg := false
	if s.i < len(s.b) && s.b[s.i] == '-' {
		neg = true
		s.i++
	}
	n, ok := s.u64()
	if !ok || n > 1<<63-1 {
		return 0, false
	}
	if neg {
		return -int64(n), true
	}
	return int64(n), true
}

// str consumes a string body plus its closing quote. Only printable ASCII
// with no escapes qualifies — anything else (escape sequences, UTF-8, raw
// control bytes) is left for the encoding/json fallback, which owns the
// unescaping and error semantics for those cases.
func (s *envSpan) str() ([]byte, bool) {
	start := s.i
	for s.i < len(s.b) {
		c := s.b[s.i]
		if c == '"' {
			out := s.b[start:s.i]
			s.i++
			return out, true
		}
		if c < 0x20 || c == '\\' || c >= 0x80 {
			return nil, false
		}
		s.i++
	}
	return nil, false
}

// internKind returns a shared string for the well-known event kinds (the
// write side's cqrs kinds plus the journal snapshot marker) so steady-state
// decode doesn't allocate a fresh kind string per event. Unknown kinds are
// copied as usual.
func internKind(b []byte) string {
	switch string(b) {
	case journal.SnapshotKind:
		return journal.SnapshotKind
	case "service_found":
		return "service_found"
	case "service_changed":
		return "service_changed"
	case "service_pending":
		return "service_pending"
	case "service_restored":
		return "service_restored"
	case "service_removed":
		return "service_removed"
	}
	return string(b)
}

// parseFast decodes one record payload if it matches a canonical envelope
// shape exactly. The returned envelope aliases the decoder's scratch structs,
// which apply consumes before the next record — only the entity string and
// the base64-decoded event payload allocate.
func (pd *partitionDecoder) parseFast(payload []byte) (envelope, bool) {
	s := envSpan{b: payload}
	if !s.lit(`{"t":"`) {
		return envelope{}, false
	}
	switch {
	case s.lit(`ev","ev":{"seq":`):
		ev := &pd.scratchEv
		*ev = evRec{}
		var ok bool
		if ev.Seq, ok = s.u64(); !ok {
			return envelope{}, false
		}
		if !s.lit(`,"ns":`) {
			return envelope{}, false
		}
		if ev.NS, ok = s.i64(); !ok {
			return envelope{}, false
		}
		if !s.lit(`,"kind":"`) {
			return envelope{}, false
		}
		kind, ok := s.str()
		if !ok {
			return envelope{}, false
		}
		ev.Kind = internKind(kind)
		if s.lit(`,"payload":"`) {
			raw, ok := s.str()
			if !ok {
				return envelope{}, false
			}
			// Same decoder encoding/json uses for []byte, so a success here
			// is byte-identical to the fallback; errors defer to it.
			dec := make([]byte, base64.StdEncoding.DecodedLen(len(raw)))
			n, err := base64.StdEncoding.Decode(dec, raw)
			if err != nil {
				return envelope{}, false
			}
			ev.Payload = dec[:n]
		}
		if !s.lit("}}") || s.i != len(s.b) {
			return envelope{}, false
		}
		return envelope{T: "ev", Ev: ev}, true

	case s.lit(`row","row":{"entity":"`):
		row := &pd.scratchRow
		*row = rowRec{}
		ent, ok := s.str()
		if !ok {
			return envelope{}, false
		}
		row.Entity = string(ent)
		if !s.lit(`,"last_snap":`) {
			return envelope{}, false
		}
		var n int64
		if n, ok = s.i64(); !ok {
			return envelope{}, false
		}
		row.LastSnap = int(n)
		if !s.lit(`,"next_seq":`) {
			return envelope{}, false
		}
		if row.NextSeq, ok = s.u64(); !ok {
			return envelope{}, false
		}
		if !s.lit(`,"hdd":`) {
			return envelope{}, false
		}
		if n, ok = s.i64(); !ok {
			return envelope{}, false
		}
		row.HDD = int(n)
		if !s.lit(`,"events":`) {
			return envelope{}, false
		}
		if n, ok = s.i64(); !ok {
			return envelope{}, false
		}
		row.Events = int(n)
		if !s.lit("}}") || s.i != len(s.b) {
			return envelope{}, false
		}
		return envelope{T: "row", Row: row}, true

	case s.lit(`meta","meta":{"ssd_reads":`):
		m := &pd.scratchMeta
		*m = metaRec{}
		var ok bool
		if m.SSDReads, ok = s.u64(); !ok {
			return envelope{}, false
		}
		if !s.lit(`,"hdd_reads":`) {
			return envelope{}, false
		}
		if m.HDDReads, ok = s.u64(); !ok {
			return envelope{}, false
		}
		if !s.lit(`,"appends":`) {
			return envelope{}, false
		}
		if m.Appends, ok = s.u64(); !ok {
			return envelope{}, false
		}
		if !s.lit(`,"snaps":`) {
			return envelope{}, false
		}
		if m.Snaps, ok = s.u64(); !ok {
			return envelope{}, false
		}
		if !s.lit("}}") || s.i != len(s.b) {
			return envelope{}, false
		}
		return envelope{T: "meta", Meta: m}, true
	}
	return envelope{}, false
}
