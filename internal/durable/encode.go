package durable

import (
	"encoding/json"
	"fmt"
	"time"

	"censysmap/internal/journal"
)

// A journal partition serializes to a flat record stream:
//
//	record 0:  {"t":"meta", ...}        partition access counters
//	then, per row in sorted entity order:
//	           {"t":"row", ...}         row header (entity, counts, bookkeeping)
//	           {"t":"ev", ...} × N      the row's events, HDD tier then SSD tier
//
// Envelopes marshal with encoding/json over fixed structs, so identical
// partitions always produce identical bytes — the property the CRC-proven
// snapshot repair and the differential suite both rest on. Event timestamps
// travel as UnixNano and are restored as UTC instants, matching the
// simulation clock's representation bit-for-bit.

type envelope struct {
	T    string   `json:"t"`
	Meta *metaRec `json:"meta,omitempty"`
	Row  *rowRec  `json:"row,omitempty"`
	Ev   *evRec   `json:"ev,omitempty"`
}

type metaRec struct {
	SSDReads uint64 `json:"ssd_reads"`
	HDDReads uint64 `json:"hdd_reads"`
	Appends  uint64 `json:"appends"`
	Snaps    uint64 `json:"snaps"`
}

type rowRec struct {
	Entity   string `json:"entity"`
	LastSnap int    `json:"last_snap"`
	NextSeq  uint64 `json:"next_seq"`
	// HDD is how many of the row's events belong to the HDD tier (they come
	// first in the stream); Events is the row's total event count.
	HDD    int `json:"hdd"`
	Events int `json:"events"`
}

type evRec struct {
	Seq     uint64 `json:"seq"`
	NS      int64  `json:"ns"`
	Kind    string `json:"kind"`
	Payload []byte `json:"payload,omitempty"`
}

func marshalEnvelope(e envelope) []byte {
	b, err := json.Marshal(e)
	if err != nil {
		panic("durable: envelope marshal cannot fail: " + err.Error())
	}
	return b
}

func eventEnvelope(ev journal.Event) []byte {
	return marshalEnvelope(envelope{T: "ev", Ev: &evRec{
		Seq: ev.Seq, NS: ev.Time.UnixNano(), Kind: ev.Kind, Payload: ev.Payload,
	}})
}

// encodePartition flattens one partition dump into record payloads.
func encodePartition(d journal.PartitionDump) [][]byte {
	out := make([][]byte, 0, 1+2*len(d.Rows))
	out = append(out, marshalEnvelope(envelope{T: "meta", Meta: &metaRec{
		SSDReads: d.SSDReads, HDDReads: d.HDDReads, Appends: d.Appends, Snaps: d.Snaps,
	}}))
	for _, r := range d.Rows {
		out = append(out, marshalEnvelope(envelope{T: "row", Row: &rowRec{
			Entity: r.Entity, LastSnap: r.LastSnap, NextSeq: r.NextSeq,
			HDD: len(r.HDD), Events: len(r.HDD) + len(r.SSD),
		}}))
		for _, ev := range r.HDD {
			out = append(out, eventEnvelope(ev))
		}
		for _, ev := range r.SSD {
			out = append(out, eventEnvelope(ev))
		}
	}
	return out
}

// SnapshotRebuilder reconstructs a snapshot-event payload for an entity from
// the events preceding it — the write side's snapshot encoder replayed over
// the journaled history. Recovery uses it to repair corrupt snapshot
// records: the candidate is accepted only when its envelope hashes to the
// frame's stored CRC32C, which proves byte-exact reconstruction.
type SnapshotRebuilder func(entity string, prior []journal.Event) ([]byte, error)

// partitionDecoder is the streaming state machine that turns a record
// sequence back into a PartitionDump. It tracks enough row context to
// attempt CRC-proven snapshot repair at any corrupt record position.
type partitionDecoder struct {
	dump    journal.PartitionDump
	sawMeta bool

	// Current row being filled, with its declared shape.
	cur     *journal.RowDump
	curHDD  int
	curWant int
	curGot  int
}

// next consumes one record payload through encoding/json.
func (pd *partitionDecoder) next(payload []byte) error {
	var e envelope
	if err := json.Unmarshal(payload, &e); err != nil {
		return fmt.Errorf("envelope: %w", err)
	}
	return pd.apply(e)
}

// apply folds one decoded envelope into the dump state machine.
func (pd *partitionDecoder) apply(e envelope) error {
	switch e.T {
	case "meta":
		if pd.sawMeta || e.Meta == nil {
			return fmt.Errorf("unexpected meta record")
		}
		pd.sawMeta = true
		pd.dump.SSDReads = e.Meta.SSDReads
		pd.dump.HDDReads = e.Meta.HDDReads
		pd.dump.Appends = e.Meta.Appends
		pd.dump.Snaps = e.Meta.Snaps
	case "row":
		if !pd.sawMeta || e.Row == nil {
			return fmt.Errorf("row record out of place")
		}
		if pd.cur != nil && pd.curGot != pd.curWant {
			return fmt.Errorf("row %q: %d events, declared %d", pd.cur.Entity, pd.curGot, pd.curWant)
		}
		pd.flushRow()
		pd.cur = &journal.RowDump{
			Entity: e.Row.Entity, LastSnap: e.Row.LastSnap, NextSeq: e.Row.NextSeq,
		}
		pd.curHDD, pd.curWant, pd.curGot = e.Row.HDD, e.Row.Events, 0
	case "ev":
		if pd.cur == nil || e.Ev == nil {
			return fmt.Errorf("event record outside a row")
		}
		if pd.curGot >= pd.curWant {
			return fmt.Errorf("row %q: more events than declared %d", pd.cur.Entity, pd.curWant)
		}
		ev := journal.Event{
			Entity: pd.cur.Entity, Seq: e.Ev.Seq,
			Time: time.Unix(0, e.Ev.NS).UTC(), Kind: e.Ev.Kind, Payload: e.Ev.Payload,
		}
		if pd.curGot < pd.curHDD {
			pd.cur.HDD = append(pd.cur.HDD, ev)
		} else {
			pd.cur.SSD = append(pd.cur.SSD, ev)
		}
		pd.curGot++
	default:
		return fmt.Errorf("unknown envelope type %q", e.T)
	}
	return nil
}

func (pd *partitionDecoder) flushRow() {
	if pd.cur != nil {
		pd.dump.Rows = append(pd.dump.Rows, *pd.cur)
		pd.cur = nil
	}
}

// finish validates terminal state and returns the dump.
func (pd *partitionDecoder) finish() (journal.PartitionDump, error) {
	if !pd.sawMeta {
		return journal.PartitionDump{}, fmt.Errorf("missing meta record")
	}
	if pd.cur != nil && pd.curGot != pd.curWant {
		return journal.PartitionDump{}, fmt.Errorf("row %q: %d events, declared %d",
			pd.cur.Entity, pd.curGot, pd.curWant)
	}
	pd.flushRow()
	return pd.dump, nil
}

// tryRepair attempts CRC-proven reconstruction of a corrupt record under the
// decoder's current position: only a snapshot event mid-row can be rebuilt
// (from the row's prior events; its timestamp equals the triggering delta's,
// because the write side journals both at the same instant). The candidate
// envelope is returned only if it hashes to storedCRC — byte-exact proof.
func (pd *partitionDecoder) tryRepair(storedCRC uint32, rebuild SnapshotRebuilder) ([]byte, bool) {
	if rebuild == nil || pd.cur == nil || pd.curGot == 0 || pd.curGot >= pd.curWant {
		return nil, false
	}
	prior := make([]journal.Event, 0, pd.curGot)
	prior = append(prior, pd.cur.HDD...)
	prior = append(prior, pd.cur.SSD...)
	prev := prior[len(prior)-1]
	payload, err := rebuild(pd.cur.Entity, prior)
	if err != nil {
		return nil, false
	}
	candidate := marshalEnvelope(envelope{T: "ev", Ev: &evRec{
		Seq: prev.Seq + 1, NS: prev.Time.UnixNano(), Kind: journal.SnapshotKind, Payload: payload,
	}})
	if Checksum(candidate) != storedCRC {
		return nil, false
	}
	return candidate, true
}
