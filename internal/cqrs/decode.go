package cqrs

// Zero-allocation decode for the journal's delta payloads, the hot loop of
// read-side replay (cqrs.RebuildProcessor, snapshot+delta reconstruction,
// cluster reader catch-up). The decoder scans a payload into field spans
// first — validating syntax, escapes, numbers, and timestamps completely —
// and only then commits the parsed values into the host's existing Service
// record, reusing the allocated Service, its Attributes map, and its
// PendingRemovalSince pointer whenever the decoded values match what is
// already there. A steady-state replay of an unchanged service therefore
// allocates nothing.
//
// Any payload the span scanner does not fully recognize (unknown fields,
// duplicate keys, non-Z time zones, exotic escapes, trailing data) falls
// back to the encoding/json path, which preserves the original semantics
// and error text exactly. The randomized differential test in codec_test.go
// holds the two paths byte-identical over the full host state they produce.

import (
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"time"
	"unicode/utf16"
	"unicode/utf8"

	"censysmap/internal/entity"
	"censysmap/internal/journal"
)

// strSpan is a raw JSON string body (the bytes between the quotes) plus
// whether it needs unescaping before use.
type strSpan struct {
	b   []byte
	esc bool
	set bool
}

// svcScan holds the spans of one scanned service object. All fields are
// validated before any of them is committed.
type svcScan struct {
	port      uint64
	portSet   bool
	transport strSpan
	protocol  strSpan
	tlsVal    bool
	tlsSet    bool
	cert      strSpan
	banner    strSpan
	attrsRaw  []byte // inside the braces, exclusive
	attrsN    int
	attrsSet  bool
	method    strSpan
	verified  bool
	verifSet  bool
	first     time.Time
	firstSet  bool
	last      time.Time
	lastSet   bool
	pending   time.Time
	pendSet   bool
	pop       strSpan
}

// decoder is the pooled scratch state for one in-flight ApplyEvent.
type decoder struct {
	svc      svcScan
	key      []byte // service map key, e.g. "443/tcp"
	kscratch []byte // unescape buffer for map keys
	vscratch []byte // unescape buffer for values
}

var decoderPool = sync.Pool{New: func() any { return new(decoder) }}

// jsParser is a minimal JSON scanner over a single payload.
type jsParser struct {
	b []byte
	i int
}

func (p *jsParser) skipWS() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

func (p *jsParser) eat(c byte) bool {
	p.skipWS()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// str consumes a JSON string (opening quote already NOT consumed) and
// returns its raw body. Escape sequences are validated here so that
// unescapeAppend can never fail at commit time; esc is also set when the
// body contains non-ASCII bytes, which must flow through the rune-decoding
// slow path to mirror encoding/json's U+FFFD replacement of invalid UTF-8.
func (p *jsParser) str() (sp strSpan, ok bool) {
	p.skipWS()
	if p.i >= len(p.b) || p.b[p.i] != '"' {
		return sp, false
	}
	p.i++
	start := p.i
	for p.i < len(p.b) {
		c := p.b[p.i]
		switch {
		case c == '"':
			sp.b = p.b[start:p.i]
			sp.set = true
			p.i++
			return sp, true
		case c == '\\':
			sp.esc = true
			p.i++
			if p.i >= len(p.b) {
				return sp, false
			}
			switch p.b[p.i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				p.i++
			case 'u':
				p.i++
				if p.i+4 > len(p.b) {
					return sp, false
				}
				for k := 0; k < 4; k++ {
					if hexVal(p.b[p.i+k]) < 0 {
						return sp, false
					}
				}
				p.i += 4
			default:
				return sp, false
			}
		case c < 0x20:
			// Raw control characters are invalid JSON; let the
			// fallback produce the canonical error.
			return sp, false
		case c >= utf8.RuneSelf:
			sp.esc = true
			p.i++
		default:
			p.i++
		}
	}
	return sp, false
}

// uintField consumes a non-negative integer with no sign, fraction, or
// exponent — the only number shape our encoders emit. Anything else falls
// back to encoding/json.
func (p *jsParser) uintField(max uint64) (uint64, bool) {
	p.skipWS()
	start := p.i
	var n uint64
	for p.i < len(p.b) {
		c := p.b[p.i]
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + uint64(c-'0')
		if n > max {
			return 0, false
		}
		p.i++
	}
	if p.i == start {
		return 0, false
	}
	if p.b[start] == '0' && p.i-start > 1 {
		return 0, false // leading zeros are invalid JSON
	}
	return n, true
}

// boolField consumes true or false.
func (p *jsParser) boolField() (v, ok bool) {
	p.skipWS()
	if p.i+4 <= len(p.b) && string(p.b[p.i:p.i+4]) == "true" {
		p.i += 4
		return true, true
	}
	if p.i+5 <= len(p.b) && string(p.b[p.i:p.i+5]) == "false" {
		p.i += 5
		return false, true
	}
	return false, false
}

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	case c >= 'A' && c <= 'F':
		return int(c-'A') + 10
	}
	return -1
}

func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		v := hexVal(c)
		if v < 0 {
			return -1
		}
		r = r*16 + rune(v)
	}
	return r
}

// unescapeAppend appends the decoded value of a scanned string body to dst.
// It mirrors encoding/json's unquote slow path: simple escapes, \uXXXX with
// surrogate pairing (unpaired halves become U+FFFD), and invalid UTF-8
// bytes replaced by U+FFFD. The scanner already validated every escape, so
// this cannot fail.
func unescapeAppend(dst, s []byte) []byte {
	for r := 0; r < len(s); {
		c := s[r]
		switch {
		case c == '\\':
			r++
			switch s[r] {
			case '"', '\\', '/':
				dst = append(dst, s[r])
				r++
			case 'b':
				dst = append(dst, '\b')
				r++
			case 'f':
				dst = append(dst, '\f')
				r++
			case 'n':
				dst = append(dst, '\n')
				r++
			case 'r':
				dst = append(dst, '\r')
				r++
			case 't':
				dst = append(dst, '\t')
				r++
			case 'u':
				rr := getu4(s[r-1:])
				r += 5
				if utf16.IsSurrogate(rr) {
					rr1 := getu4(s[r:])
					if dec := utf16.DecodeRune(rr, rr1); dec != utf8.RuneError {
						r += 6
						rr = dec
					} else {
						rr = utf8.RuneError
					}
				}
				dst = utf8.AppendRune(dst, rr)
			}
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			r += size
			dst = utf8.AppendRune(dst, rr)
		}
	}
	return dst
}

// parseRFC3339Z parses the timestamp shapes our encoder emits: Zulu-zoned
// RFC3339 with up to nine fractional digits. Offsets, lowercase t/z, and
// anything else defer to the fallback's time.Parse.
func parseRFC3339Z(b []byte) (time.Time, bool) {
	// Minimum: 2006-01-02T15:04:05Z → 20 bytes.
	if len(b) < 20 || b[4] != '-' || b[7] != '-' || b[10] != 'T' || b[13] != ':' || b[16] != ':' {
		return time.Time{}, false
	}
	num := func(lo, hi int) (int, bool) {
		n := 0
		for _, c := range b[lo:hi] {
			if c < '0' || c > '9' {
				return 0, false
			}
			n = n*10 + int(c-'0')
		}
		return n, true
	}
	year, ok1 := num(0, 4)
	mo, ok2 := num(5, 7)
	day, ok3 := num(8, 10)
	hh, ok4 := num(11, 13)
	mm, ok5 := num(14, 16)
	ss, ok6 := num(17, 19)
	if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 || !ok6 {
		return time.Time{}, false
	}
	if mo < 1 || mo > 12 || day < 1 || day > 31 || hh > 23 || mm > 59 || ss > 59 {
		return time.Time{}, false
	}
	nsec := 0
	i := 19
	if b[i] == '.' {
		i++
		start := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			nsec = nsec*10 + int(b[i]-'0')
			i++
		}
		digits := i - start
		if digits == 0 || digits > 9 {
			return time.Time{}, false
		}
		for ; digits < 9; digits++ {
			nsec *= 10
		}
	}
	if i != len(b)-1 || b[i] != 'Z' {
		return time.Time{}, false
	}
	t := time.Date(year, time.Month(mo), day, hh, mm, ss, nsec, time.UTC)
	if t.Day() != day || t.Year() != year {
		return time.Time{}, false // e.g. Feb 30 normalized away
	}
	return t, true
}

// fieldName consumes `"name":` and returns the raw name span. Names with
// escapes bail to the fallback — our encoders never escape field names.
func (p *jsParser) fieldName() ([]byte, bool) {
	sp, ok := p.str()
	if !ok || sp.esc {
		return nil, false
	}
	if !p.eat(':') {
		return nil, false
	}
	return sp.b, true
}

// atEnd reports whether only whitespace remains; trailing data must fall
// back so encoding/json can report it.
func (p *jsParser) atEnd() bool {
	p.skipWS()
	return p.i == len(p.b)
}

// timeField consumes a quoted Zulu RFC3339 timestamp.
func (p *jsParser) timeField() (time.Time, bool) {
	sp, ok := p.str()
	if !ok || sp.esc {
		return time.Time{}, false
	}
	return parseRFC3339Z(sp.b)
}

// scanAttrs consumes a {"k":"v",...} object of string pairs, returning the
// raw interior span and the pair count.
func (p *jsParser) scanAttrs() (raw []byte, n int, ok bool) {
	p.skipWS()
	if p.i >= len(p.b) || p.b[p.i] != '{' {
		return nil, 0, false
	}
	p.i++
	start := p.i
	p.skipWS()
	if p.i < len(p.b) && p.b[p.i] == '}' {
		raw = p.b[start:p.i]
		p.i++
		return raw, 0, true
	}
	for {
		if _, ok := p.str(); !ok {
			return nil, 0, false
		}
		if !p.eat(':') {
			return nil, 0, false
		}
		if _, ok := p.str(); !ok {
			return nil, 0, false
		}
		n++
		p.skipWS()
		if p.i >= len(p.b) {
			return nil, 0, false
		}
		switch p.b[p.i] {
		case ',':
			p.i++
		case '}':
			raw = p.b[start:p.i]
			p.i++
			return raw, n, true
		default:
			return nil, 0, false
		}
	}
}

// resolve returns the decoded bytes of a span, unescaping into scratch when
// needed. The result aliases either the payload or scratch — callers must
// copy before retaining.
func resolve(sp strSpan, scratch *[]byte) []byte {
	if !sp.esc {
		return sp.b
	}
	*scratch = unescapeAppend((*scratch)[:0], sp.b)
	return *scratch
}

// assignStr stores the decoded span into dst, allocating a new string only
// when the value actually changed.
func assignStr[T ~string](d *decoder, dst *T, sp strSpan) {
	b := resolve(sp, &d.vscratch)
	if string(*dst) != string(b) {
		*dst = T(b)
	}
}

// scanService scans the body of a service object (opening brace consumed)
// into d.svc. Unknown or duplicate fields reject the fast path.
func (d *decoder) scanService(p *jsParser) bool {
	s := &d.svc
	*s = svcScan{}
	p.skipWS()
	if p.i < len(p.b) && p.b[p.i] == '}' {
		p.i++
		return true
	}
	for {
		name, ok := p.fieldName()
		if !ok {
			return false
		}
		switch string(name) {
		case "port":
			if s.portSet {
				return false
			}
			s.port, ok = p.uintField(65535)
			s.portSet = ok
		case "transport":
			if s.transport.set {
				return false
			}
			s.transport, ok = p.str()
		case "protocol":
			if s.protocol.set {
				return false
			}
			s.protocol, ok = p.str()
		case "tls":
			if s.tlsSet {
				return false
			}
			s.tlsVal, ok = p.boolField()
			s.tlsSet = ok
		case "cert_sha256":
			if s.cert.set {
				return false
			}
			s.cert, ok = p.str()
		case "banner":
			if s.banner.set {
				return false
			}
			s.banner, ok = p.str()
		case "attributes":
			if s.attrsSet {
				return false
			}
			s.attrsRaw, s.attrsN, ok = p.scanAttrs()
			s.attrsSet = ok
		case "method":
			if s.method.set {
				return false
			}
			s.method, ok = p.str()
		case "verified":
			if s.verifSet {
				return false
			}
			s.verified, ok = p.boolField()
			s.verifSet = ok
		case "first_seen":
			if s.firstSet {
				return false
			}
			s.first, ok = p.timeField()
			s.firstSet = ok
		case "last_seen":
			if s.lastSet {
				return false
			}
			s.last, ok = p.timeField()
			s.lastSet = ok
		case "pending_removal_since":
			if s.pendSet {
				return false
			}
			s.pending, ok = p.timeField()
			s.pendSet = ok
		case "source_pop":
			if s.pop.set {
				return false
			}
			s.pop, ok = p.str()
		default:
			return false
		}
		if !ok {
			return false
		}
		p.skipWS()
		if p.i >= len(p.b) {
			return false
		}
		switch p.b[p.i] {
		case ',':
			p.i++
		case '}':
			p.i++
			return true
		default:
			return false
		}
	}
}

// serviceKey formats "port/transport" into d.key for map addressing.
func (d *decoder) serviceKey(port uint64, transport []byte) {
	d.key = strconv.AppendUint(d.key[:0], port, 10)
	d.key = append(d.key, '/')
	d.key = append(d.key, transport...)
}

// commitAttrs reconciles the scanned attribute pairs with the service's
// existing map: a compare pass first, and a rebuild only on mismatch.
func (d *decoder) commitAttrs(svc *entity.Service) {
	s := &d.svc
	if s.attrsN == 0 {
		// encoding/json leaves the destination map untouched for an
		// empty object; nil and empty compare equal everywhere the
		// map is consumed, and our encoder omits empty maps anyway.
		if len(svc.Attributes) != 0 {
			svc.Attributes = make(map[string]string, 0)
		}
		return
	}
	m := svc.Attributes
	if len(m) == s.attrsN && d.attrsMatch(m) {
		return
	}
	m = make(map[string]string, s.attrsN)
	p := jsParser{b: s.attrsRaw}
	for n := 0; n < s.attrsN; n++ {
		if n > 0 {
			p.eat(',')
		}
		ksp, _ := p.str()
		p.eat(':')
		vsp, _ := p.str()
		k := resolve(ksp, &d.kscratch)
		v := resolve(vsp, &d.vscratch)
		m[string(k)] = string(v)
	}
	svc.Attributes = m
}

// attrsMatch reports whether the scanned pairs equal m exactly.
func (d *decoder) attrsMatch(m map[string]string) bool {
	s := &d.svc
	p := jsParser{b: s.attrsRaw}
	for n := 0; n < s.attrsN; n++ {
		if n > 0 {
			p.eat(',')
		}
		ksp, _ := p.str()
		p.eat(':')
		vsp, _ := p.str()
		k := resolve(ksp, &d.kscratch)
		v, ok := m[string(k)]
		if !ok || v != string(resolve(vsp, &d.vscratch)) {
			return false
		}
	}
	return true
}

// applyService is the fast path for found/changed/restored deltas:
// {"service":{...}}. Returns false (host untouched) when the payload needs
// the fallback.
func (d *decoder) applyService(h *entity.Host, payload []byte) bool {
	p := jsParser{b: payload}
	if !p.eat('{') {
		return false
	}
	name, ok := p.fieldName()
	if !ok || string(name) != "service" {
		return false
	}
	p.skipWS()
	if p.i >= len(p.b) || p.b[p.i] != '{' {
		return false // null or non-object service: fallback decides
	}
	p.i++
	if !d.scanService(&p) {
		return false
	}
	if !p.eat('}') || !p.atEnd() {
		return false
	}
	s := &d.svc
	if !s.portSet || !s.transport.set || s.transport.esc {
		return false
	}

	// Commit. Nothing below can fail.
	d.serviceKey(s.port, s.transport.b)
	svc := h.Services[string(d.key)]
	fresh := svc == nil
	if fresh {
		svc = &entity.Service{}
	}
	svc.Port = uint16(s.port)
	assignStr(d, &svc.Transport, s.transport)
	assignStr(d, &svc.Protocol, s.protocol)
	svc.TLS = s.tlsVal
	assignStr(d, &svc.CertSHA256, s.cert)
	assignStr(d, &svc.Banner, s.banner)
	if s.attrsSet {
		d.commitAttrs(svc)
	} else {
		svc.Attributes = nil
	}
	assignStr(d, &svc.Method, s.method)
	svc.Verified = s.verified
	svc.FirstSeen = s.first
	svc.LastSeen = s.last
	if s.pendSet {
		if svc.PendingRemovalSince != nil {
			*svc.PendingRemovalSince = s.pending
		} else {
			t := s.pending
			svc.PendingRemovalSince = &t
		}
	} else {
		svc.PendingRemovalSince = nil
	}
	assignStr(d, &svc.SourcePoP, s.pop)
	if fresh {
		if h.Services == nil {
			h.Services = make(map[string]*entity.Service)
		}
		h.Services[string(d.key)] = svc
	}
	return true
}

// applyKey is the fast path for pending/removed deltas:
// {"port":N,"transport":"tcp","since":"..."}.
func (d *decoder) applyKey(h *entity.Host, payload []byte, remove bool) bool {
	p := jsParser{b: payload}
	if !p.eat('{') {
		return false
	}
	var (
		port      uint64
		portSet   bool
		transport strSpan
		since     time.Time
		sinceSet  bool
		ok        bool
	)
	p.skipWS()
	if p.i < len(p.b) && p.b[p.i] == '}' {
		p.i++
	} else {
		for {
			name, nok := p.fieldName()
			if !nok {
				return false
			}
			switch string(name) {
			case "port":
				if portSet {
					return false
				}
				port, ok = p.uintField(65535)
				portSet = ok
			case "transport":
				if transport.set {
					return false
				}
				transport, ok = p.str()
			case "since":
				if sinceSet {
					return false
				}
				since, ok = p.timeField()
				sinceSet = ok
			default:
				return false
			}
			if !ok {
				return false
			}
			p.skipWS()
			if p.i >= len(p.b) {
				return false
			}
			if p.b[p.i] == ',' {
				p.i++
				continue
			}
			if p.b[p.i] == '}' {
				p.i++
				break
			}
			return false
		}
	}
	if !p.atEnd() {
		return false
	}
	if transport.esc {
		return false
	}
	d.serviceKey(port, transport.b)
	if remove {
		if _, present := h.Services[string(d.key)]; present {
			delete(h.Services, string(d.key))
		}
		return true
	}
	if svc := h.Services[string(d.key)]; svc != nil {
		if svc.PendingRemovalSince != nil {
			*svc.PendingRemovalSince = since
		} else {
			t := since
			svc.PendingRemovalSince = &t
		}
	}
	return true
}

// applyServiceSlow is the original encoding/json reducer arm, kept as the
// semantic reference and fallback for payloads the scanner rejects.
func applyServiceSlow(h *entity.Host, ev journal.Event) error {
	var p servicePayload
	if err := json.Unmarshal(ev.Payload, &p); err != nil {
		return fmt.Errorf("cqrs: apply %s: %w", ev.Kind, err)
	}
	if p.Service == nil {
		return fmt.Errorf("cqrs: %s event without service", ev.Kind)
	}
	h.SetService(p.Service)
	return nil
}

func applyKeySlow(h *entity.Host, ev journal.Event) error {
	var p keyPayload
	switch ev.Kind {
	case KindServicePending:
		if err := json.Unmarshal(ev.Payload, &p); err != nil {
			return fmt.Errorf("cqrs: apply pending: %w", err)
		}
		if svc := h.Service(entity.ServiceKey{Port: p.Port, Transport: p.Transport}); svc != nil {
			since := p.Since
			svc.PendingRemovalSince = &since
		}
	case KindServiceRemoved:
		if err := json.Unmarshal(ev.Payload, &p); err != nil {
			return fmt.Errorf("cqrs: apply removed: %w", err)
		}
		h.RemoveService(entity.ServiceKey{Port: p.Port, Transport: p.Transport})
	}
	return nil
}
