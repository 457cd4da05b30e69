package cqrs

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"censysmap/internal/entity"
	"censysmap/internal/journal"
)

// fuzzWarmHost is the record every fuzzed event is applied to: one fully
// populated service at 443/tcp, so payloads addressing that slot exercise
// the decoder's in-place reuse of an existing Service, its Attributes map
// and its PendingRemovalSince pointer.
func fuzzWarmHost() *entity.Host {
	h := &entity.Host{LastUpdated: time.Date(2024, 8, 22, 3, 0, 0, 0, time.UTC)}
	h.SetService(allocProbeService())
	return h
}

// FuzzApplyEvent holds the span-scanning decoder to the encoding/json
// reducer for arbitrary kinds and payloads: ApplyEvent must not panic, must
// fail exactly when applyReference fails and with the same error text, and
// must leave a host record that snapshots to the same bytes. Comparing
// snapshots, as TestApplyEventDifferential does, treats an empty and a nil
// attribute map as equal (the journal cannot tell them apart) but still
// catches a decoded string that differs in any byte.
func FuzzApplyEvent(f *testing.F) {
	kinds := []string{KindServiceFound, KindServiceChanged, KindServiceRestored,
		KindServicePending, KindServiceRemoved}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 12; i++ {
		svc := randService(rng)
		if i%3 == 0 {
			svc.Port, svc.Transport = 443, entity.TCP
		}
		f.Add(kinds[i%3], EncodeServiceEvent(svc))
		key := entity.ServiceKey{Port: svc.Port, Transport: svc.Transport}
		f.Add(kinds[3+i%2], EncodeKeyEvent(key, randTime(rng)))
	}
	// The journal's golden files: every committed event payload, under its
	// own kind.
	for _, name := range []string{"service_event.golden", "key_event.golden"} {
		data, err := os.ReadFile(filepath.Join("..", "journal", "testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		for _, kind := range kinds {
			f.Add(kind, data)
		}
	}
	stream, err := os.ReadFile(filepath.Join("..", "journal", "testdata", "delta_stream.golden"))
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range bytes.Split(stream, []byte("\n")) {
		_, rest, ok := bytes.Cut(line, []byte(" kind="))
		if !ok {
			continue
		}
		kind, payload, ok := bytes.Cut(rest, []byte(" payload="))
		if ok {
			f.Add(string(kind), payload)
		}
	}

	at := time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC)
	f.Fuzz(func(t *testing.T, kind string, payload []byte) {
		ev := journal.Event{Kind: kind, Time: at, Payload: payload}
		got, want := fuzzWarmHost(), fuzzWarmHost()
		errGot, errWant := ApplyEvent(got, ev), applyReference(want, ev)
		if (errGot == nil) != (errWant == nil) ||
			(errGot != nil && errGot.Error() != errWant.Error()) {
			t.Fatalf("kind %q payload %q: ApplyEvent err %v, reference err %v",
				kind, payload, errGot, errWant)
		}
		if g, w := EncodeHostSnapshot(got), EncodeHostSnapshot(want); !bytes.Equal(g, w) {
			t.Fatalf("kind %q payload %q: hosts diverged:\n got  %s\n want %s", kind, payload, g, w)
		}
	})
}
