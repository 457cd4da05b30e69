package cqrs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"censysmap/internal/entity"
	"censysmap/internal/journal"
)

// nastyStrings exercise every escaping regime encoding/json has: HTML
// escapes, control shorthands, \u00xx controls, invalid UTF-8 (replaced by
// U+FFFD), U+2028/U+2029, multi-byte runes, and plain ASCII.
var nastyStrings = []string{
	"",
	"plain ascii",
	"<html>&amp;</html>",
	"line\nbreak\ttab\rret",
	"quote\"back\\slash/solidus",
	"ctrl\x01\x1f\x00byte",
	"bad utf8 \xff\xfe\xc3(",
	"line sep \u2028 para sep \u2029",
	"h\u00e9llo w\u00f6rld \u4e16\u754c \U0001F600",
	"trailing high surrogate byte \xed\xa0\x80",
	"MODBUS/TCP \u2192 unit",
}

func randString(rng *rand.Rand) string {
	return nastyStrings[rng.Intn(len(nastyStrings))]
}

func randTime(rng *rand.Rand) time.Time {
	base := time.Date(2024, 8, 20, 0, 0, 0, 0, time.UTC)
	t := base.Add(time.Duration(rng.Int63n(int64(100 * 24 * time.Hour))))
	switch rng.Intn(3) {
	case 0:
		return t // whole seconds
	case 1:
		return t.Add(time.Duration(rng.Intn(1e9))) // nanos
	default:
		return t.Add(time.Duration(rng.Intn(1000)) * time.Millisecond)
	}
}

func randService(rng *rand.Rand) *entity.Service {
	svc := &entity.Service{
		Port:      uint16(rng.Intn(65536)),
		Transport: []entity.Transport{entity.TCP, entity.UDP}[rng.Intn(2)],
		Protocol:  []string{"HTTP", "MODBUS", "UNKNOWN", randString(rng)}[rng.Intn(4)],
		TLS:       rng.Intn(2) == 0,
		Verified:  rng.Intn(2) == 0,
		FirstSeen: randTime(rng),
		LastSeen:  randTime(rng),
	}
	if rng.Intn(2) == 0 {
		svc.CertSHA256 = randString(rng)
	}
	if rng.Intn(2) == 0 {
		svc.Banner = randString(rng)
	}
	if rng.Intn(2) == 0 {
		svc.Method = entity.DetectPriorityScan
	}
	if rng.Intn(2) == 0 {
		svc.SourcePoP = randString(rng)
	}
	if n := rng.Intn(20); n > 0 {
		svc.Attributes = make(map[string]string, n)
		for i := 0; i < n; i++ {
			svc.Attributes[fmt.Sprintf("attr.%s.%d", randString(rng), i)] = randString(rng)
		}
	}
	if rng.Intn(3) == 0 {
		t := randTime(rng)
		svc.PendingRemovalSince = &t
	}
	return svc
}

// allocProbeService is a fully populated service record: every serialized
// field set, attributes and a pending-removal time included.
func allocProbeService() *entity.Service {
	since := time.Date(2024, 8, 22, 3, 0, 0, 0, time.UTC)
	return &entity.Service{
		Port: 443, Transport: entity.TCP, Protocol: "HTTP", TLS: true,
		CertSHA256: "ab12", Banner: "HTTP/1.1 200 OK\r\nServer: nginx",
		Attributes: map[string]string{"http.title": "Welcome", "http.status": "200"},
		Method:     entity.DetectPriorityScan, Verified: true,
		FirstSeen:           time.Date(2024, 8, 20, 1, 0, 0, 0, time.UTC),
		LastSeen:            time.Date(2024, 8, 21, 1, 0, 0, 0, time.UTC),
		PendingRemovalSince: &since, SourcePoP: "chi",
	}
}

// applyReference is the pre-codec reducer (pure encoding/json), kept here as
// the semantic oracle for the fast decode path.
func applyReference(h *entity.Host, ev journal.Event) error {
	switch ev.Kind {
	case KindServiceFound, KindServiceChanged, KindServiceRestored:
		var p servicePayload
		if err := json.Unmarshal(ev.Payload, &p); err != nil {
			return fmt.Errorf("cqrs: apply %s: %w", ev.Kind, err)
		}
		if p.Service == nil {
			return fmt.Errorf("cqrs: %s event without service", ev.Kind)
		}
		h.SetService(p.Service)
	case KindServicePending:
		var p keyPayload
		if err := json.Unmarshal(ev.Payload, &p); err != nil {
			return fmt.Errorf("cqrs: apply pending: %w", err)
		}
		if svc := h.Service(entity.ServiceKey{Port: p.Port, Transport: p.Transport}); svc != nil {
			since := p.Since
			svc.PendingRemovalSince = &since
		}
	case KindServiceRemoved:
		var p keyPayload
		if err := json.Unmarshal(ev.Payload, &p); err != nil {
			return fmt.Errorf("cqrs: apply removed: %w", err)
		}
		h.RemoveService(entity.ServiceKey{Port: p.Port, Transport: p.Transport})
	}
	if ev.Time.After(h.LastUpdated) {
		h.LastUpdated = ev.Time
	}
	return nil
}

// TestApplyEventDifferential replays randomized event sequences through the
// fast decoder and the encoding/json oracle and requires the resulting host
// states to re-encode to identical bytes.
func TestApplyEventDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	kinds := []string{KindServiceFound, KindServiceChanged, KindServiceRestored}
	for seq := 0; seq < 200; seq++ {
		fast := &entity.Host{}
		ref := &entity.Host{}
		for i := 0; i < 30; i++ {
			var ev journal.Event
			ev.Time = randTime(rng)
			switch rng.Intn(4) {
			case 0, 1:
				ev.Kind = kinds[rng.Intn(len(kinds))]
				ev.Payload = EncodeServiceEvent(randService(rng))
			case 2:
				ev.Kind = KindServicePending
				ev.Payload = EncodeKeyEvent(entity.ServiceKey{
					Port: uint16(rng.Intn(8)), Transport: entity.TCP,
				}, randTime(rng))
			default:
				ev.Kind = KindServiceRemoved
				ev.Payload = EncodeKeyEvent(entity.ServiceKey{
					Port: uint16(rng.Intn(8)), Transport: entity.TCP,
				}, randTime(rng))
			}
			if err := ApplyEvent(fast, ev); err != nil {
				t.Fatalf("seq %d ev %d: fast apply: %v", seq, i, err)
			}
			if err := applyReference(ref, ev); err != nil {
				t.Fatalf("seq %d ev %d: reference apply: %v", seq, i, err)
			}
		}
		got := EncodeHostSnapshot(fast)
		want := EncodeHostSnapshot(ref)
		if !bytes.Equal(got, want) {
			t.Fatalf("seq %d diverged:\n fast %s\n ref  %s", seq, got, want)
		}
	}
}

// TestApplyEventFallbackShapes feeds payload shapes the span scanner must
// reject to the full ApplyEvent and requires behavior identical to the
// encoding/json oracle — including error text.
func TestApplyEventFallbackShapes(t *testing.T) {
	base := EncodeServiceEvent(&entity.Service{
		Port: 80, Transport: entity.TCP, Protocol: "HTTP",
		FirstSeen: time.Date(2024, 8, 20, 1, 0, 0, 0, time.UTC),
		LastSeen:  time.Date(2024, 8, 21, 1, 0, 0, 0, time.UTC),
	})
	payloads := [][]byte{
		[]byte(` { "service" : { "port" : 80 , "transport" : "tcp" , "protocol" : "HTTP" , "first_seen" : "2024-08-20T01:00:00Z" , "last_seen" : "2024-08-21T01:00:00Z" } } `),
		[]byte(`{"service":{"transport":"tcp","port":80,"protocol":"HTTP","first_seen":"2024-08-20T01:00:00Z","last_seen":"2024-08-21T01:00:00Z"}}`),
		[]byte(`{"service":{"port":80,"transport":"tcp","protocol":"HTTP","first_seen":"2024-08-20T01:00:00+00:00","last_seen":"2024-08-21T01:00:00Z"}}`),
		[]byte(`{"service":{"port":80,"transport":"tcp","protocol":"HTTP","future_field":1,"first_seen":"2024-08-20T01:00:00Z","last_seen":"2024-08-21T01:00:00Z"}}`),
		[]byte(`{"service":null}`),
		[]byte(`{"service":`),
		[]byte(`{"service":{}}`),
		[]byte(`not json`),
		[]byte(`{"service":{"port":99999,"transport":"tcp"}}`),
		[]byte(`{"service":{"port":80,"transport":"tcp","first_seen":"2024-02-30T01:00:00Z"}}`),
		base,
		append(append([]byte{}, base...), ' '),
		append(append([]byte{}, base...), 'x'),
	}
	for i, payload := range payloads {
		for _, kind := range []string{KindServiceFound, KindServicePending, KindServiceRemoved} {
			ev := journal.Event{Kind: kind, Time: time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC), Payload: payload}
			if kind != KindServiceFound {
				// Key events get key-shaped payloads for the valid cases;
				// the malformed ones are interesting for every kind.
				ev.Payload = []byte(`{"port":80,"transport":"tcp","since":"2024-08-22T00:00:00Z"}`)
				if i >= 5 && i <= 9 {
					ev.Payload = payload
				}
			}
			fast := &entity.Host{}
			ref := &entity.Host{}
			fast.SetService(&entity.Service{Port: 80, Transport: entity.TCP, Protocol: "OLD"})
			ref.SetService(&entity.Service{Port: 80, Transport: entity.TCP, Protocol: "OLD"})
			errFast := ApplyEvent(fast, ev)
			errRef := applyReference(ref, ev)
			if (errFast == nil) != (errRef == nil) {
				t.Fatalf("payload %d kind %s: fast err %v, ref err %v", i, kind, errFast, errRef)
			}
			if errFast != nil && errFast.Error() != errRef.Error() {
				t.Fatalf("payload %d kind %s: error text diverged:\n fast %q\n ref  %q", i, kind, errFast, errRef)
			}
			got, want := EncodeHostSnapshot(fast), EncodeHostSnapshot(ref)
			if !bytes.Equal(got, want) {
				t.Fatalf("payload %d kind %s diverged:\n fast %s\n ref  %s", i, kind, got, want)
			}
		}
	}
}
