package simnet

import (
	"io"
	"net/netip"
	"time"

	"censysmap/internal/entity"
	"censysmap/internal/protocols"
)

// Scanner identifies a probing engine to the network. Networks react to
// scanners: per-source-IP probe rates above the blocking threshold get the
// scanner blocked, so an engine that concentrates traffic on few source IPs
// loses coverage (paper §4.1's motivation for spreading scans over a pool).
type Scanner struct {
	// ID distinguishes engines for blocking purposes.
	ID string
	// SourceIPs is the size of the engine's source address pool.
	SourceIPs int
	// Country is where the engine's vantage point sits (geoblocking).
	Country string
	// BlockedFrac is the fraction of /24 networks that blocklist this
	// scanner outright — operator reputation. Widely-blocked engines lose
	// coverage even on popular ports.
	BlockedFrac float64
}

// Outcome classifies an L4 probe result.
type Outcome int

// Probe outcomes.
const (
	Dropped Outcome = iota // no response: dead host, filtered, lost, blocked
	Open                   // SYN-ACK (or UDP reply)
	Closed                 // RST
)

// ProbeTCP performs one stateless TCP SYN probe and reports the outcome.
func (n *Internet) ProbeTCP(sc Scanner, addr netip.Addr, port uint16) Outcome {
	h := n.hosts[addr]
	if h == nil {
		// Dead address space never answers; skip the path model entirely.
		// (Dead-space probes also don't feed the blocking counters — a
		// deliberate simplification that keeps 65K background sweeps of a
		// mostly-empty universe cheap.)
		n.probesSeen.Add(1)
		return Dropped
	}
	if !n.pathOK(sc, addr, OpProbe) {
		return Dropped
	}
	if h.Pseudo || h.Tarpit {
		return Open // pseudo-hosts and tarpits accept on every port
	}
	now := n.clock.Now()
	for _, s := range h.Slots {
		if s.Port == port && s.Transport == entity.TCP && s.AliveAt(n.epoch, now) {
			return Open
		}
	}
	return Closed
}

// ProbeUDP sends a protocol-specific UDP probe payload and returns the
// service's reply, if any. UDP has no "closed" signal: silence is the only
// failure mode, exactly the ambiguity real UDP scanning faces.
func (n *Internet) ProbeUDP(sc Scanner, addr netip.Addr, port uint16, payload []byte) ([]byte, Outcome) {
	h := n.hosts[addr]
	if h == nil || h.Pseudo || h.Tarpit {
		n.probesSeen.Add(1)
		return nil, Dropped // dead space / pseudo-hosts / tarpits (TCP phenomena)
	}
	if !n.pathOK(sc, addr, OpProbe) {
		return nil, Dropped
	}
	now := n.clock.Now()
	for _, s := range h.Slots {
		if s.Port == port && s.Transport == entity.UDP && s.AliveAt(n.epoch, now) {
			sess := protocols.NewSession(s.Spec)
			if sess == nil {
				return nil, Dropped
			}
			resp, _ := sess.Respond(payload)
			if len(resp) == 0 {
				return nil, Dropped
			}
			return resp, Open
		}
	}
	return nil, Dropped
}

// Connect opens an application-layer connection to the service at
// (addr, port), as interrogation does after discovery. ok is false when the
// path fails or no live service listens there.
func (n *Internet) Connect(sc Scanner, addr netip.Addr, port uint16, transport entity.Transport) (io.ReadWriter, bool) {
	h := n.hosts[addr]
	if h == nil {
		n.probesSeen.Add(1)
		return nil, false
	}
	if !n.pathOK(sc, addr, OpConnect) {
		return nil, false
	}
	now := n.clock.Now()
	if h.Pseudo {
		// Pseudo-hosts accept the TCP connection then serve an identical
		// trivial HTTP page on every port.
		if transport != entity.TCP {
			return nil, false
		}
		spec := protocols.Spec{Protocol: "HTTP", Product: "pseudo", Title: "OK"}
		return protocols.NewSessionConn(protocols.NewSession(spec)), true
	}
	if h.Tarpit {
		// Tarpits accept the TCP connection on any port, then stall or drip.
		if transport != entity.TCP {
			return nil, false
		}
		return &TarpitConn{
			drip: h.TarpitDrip,
			seed: mix(n.advSeed, 0x7A9B, uint64(addrU32(addr)), uint64(port)),
		}, true
	}
	for _, s := range h.Slots {
		if s.Port == port && s.Transport == transport && s.AliveAt(n.epoch, now) {
			spec := s.Spec
			if h.BannerChurn {
				spec = n.churnSpec(h, s, now)
			}
			sess := protocols.NewSession(spec)
			if sess == nil {
				return nil, false
			}
			return protocols.NewSessionConn(sess), true
		}
	}
	return nil, false
}

// ConnectName opens a connection to a name-addressed web property, the
// name-based scanning path (§4.3). ok is false if the name does not resolve
// or the site is not yet online.
func (n *Internet) ConnectName(sc Scanner, name string, port uint16) (io.ReadWriter, bool) {
	site := n.webProps[name]
	if site == nil || n.clock.Now().Before(site.Birth) || len(site.Addrs) == 0 {
		return nil, false
	}
	if port != 0 && port != 443 {
		return nil, false
	}
	addr := site.Addrs[int(n.probesSeen.Load())%len(site.Addrs)]
	if !n.pathOK(sc, addr, OpConnectName) {
		return nil, false
	}
	if n.hosts[addr] == nil {
		return nil, false // serving host is gone
	}
	sess := protocols.NewSession(site.Spec)
	if sess == nil {
		return nil, false
	}
	return protocols.NewSessionConn(sess), true
}

// pathOK models everything between scanner and host: blocking, geoblocking,
// transient outages, and path loss. It also feeds the rate-based blocking
// counters.
func (n *Internet) pathOK(sc Scanner, addr netip.Addr, op Op) bool {
	n.probesSeen.Add(1)
	now := n.clock.Now()
	net := net24(addr)

	n.pathMu.Lock()
	// Active block for this scanner on this network?
	if till, ok := n.blockedTill[scanNetKey{sc.ID, net}]; ok {
		if now.Before(till) {
			n.pathMu.Unlock()
			return false
		}
		delete(n.blockedTill, scanNetKey{sc.ID, net})
	}

	// Rate accounting: per scanner, per /24, per simulated day.
	day := int64(now.Sub(n.epoch) / (24 * time.Hour))
	bk := blockKey{sc.ID, net, day}
	n.probeCounts[bk]++
	srcs := sc.SourceIPs
	if srcs < 1 {
		srcs = 1
	}
	if n.cfg.BlockThreshold > 0 && n.probeCounts[bk] > n.cfg.BlockThreshold*srcs {
		n.blockedTill[scanNetKey{sc.ID, net}] = now.Add(n.cfg.BlockDuration)
		n.pathMu.Unlock()
		return false
	}
	// Scan detectors: networks that watch discovery traffic and block with
	// escalating durations. Only OpProbe feeds the counters — discovery
	// probing is serial in the pipeline, so detector triggering (and hence
	// the resulting blocks, which affect every op) is a pure function of the
	// probe schedule, independent of worker/shard layout. Connect traffic
	// from parallel interrogation workers never advances a detector.
	if adv := n.cfg.Adversary; adv.DetectorRate > 0 && adv.DetectorThreshold > 0 &&
		op == OpProbe && n.detectorAt(uint64(addrU32(net))) {
		n.detCounts[bk]++
		if n.detCounts[bk] > adv.DetectorThreshold {
			snk := scanNetKey{sc.ID, net}
			off := n.detOffense[snk] + 1
			n.detOffense[snk] = off
			dur := adv.baseBlock()
			for i := 1; i < off; i++ {
				dur *= 2
				if dur >= adv.maxBlock() {
					dur = adv.maxBlock()
					break
				}
			}
			n.blockedTill[snk] = now.Add(dur)
			n.detEvents[sc.ID]++
			n.detCounts[bk] = 0 // fresh window after the block expires
			n.pathMu.Unlock()
			return false
		}
	}
	// Per-(scanner, addr) probe ordinal for the loss draw below.
	pk := pathKey{sc.ID, addr}
	seq := n.pathSeq[pk]
	n.pathSeq[pk] = seq + 1
	n.pathMu.Unlock()

	// Injected faults: consulted after the sequence number is consumed, so an
	// injected drop is indistinguishable from natural loss to later draws.
	if n.fault != nil && n.fault.Drop(sc, addr, op, seq, now) {
		return false
	}

	netID := uint64(addrU32(net))
	// Reputation blocklists: some networks drop this scanner wholesale.
	if sc.BlockedFrac > 0 && frac(mix(n.cfg.Seed, 0xB10C, netID, strHash(sc.ID))) < sc.BlockedFrac {
		return false
	}
	// Geoblocking: a small fraction of networks drop foreign scanners.
	if frac(mix(n.cfg.Seed, 0x6E0, netID)) < n.cfg.GeoblockRate {
		netCountry := pickCountry(mix(n.cfg.Seed, 0xC0, uint64(addrU32(net)-addrU32(n.cfg.Prefix.Masked().Addr()))>>8))
		if sc.Country != netCountry {
			return false
		}
	}

	// Transient outage: whole /24 down for this hour.
	hour := int64(now.Sub(n.epoch) / time.Hour)
	if frac(mix(n.cfg.Seed, 0x007, netID, uint64(hour))) < n.cfg.OutageRate {
		return false
	}

	// Path loss: base scaled by a per-(scanner-country, /16) component so
	// vantage points see different networks differently (Wan et al.).
	// Proportional scaling keeps BaseLoss=0 a true no-loss configuration.
	net16 := uint64(addrU32(addr) &^ 0xFFFF)
	loss := n.cfg.BaseLoss * (1 + 2*frac(mix(n.cfg.Seed, 0x105, net16, strHash(sc.Country))))
	if frac(mix(n.cfg.Seed, 0x10D, uint64(addrU32(addr)), strHash(sc.ID), seq)) < loss {
		return false
	}
	return true
}

func strHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// BlockedNetworks reports how many (scanner, network) blocks are active.
func (n *Internet) BlockedNetworks(scannerID string) int {
	now := n.clock.Now()
	count := 0
	n.pathMu.Lock()
	defer n.pathMu.Unlock()
	for k, till := range n.blockedTill {
		if k.scanner == scannerID && now.Before(till) {
			count++
		}
	}
	return count
}

// ProbesSeen returns the total probes the network has processed.
func (n *Internet) ProbesSeen() uint64 { return n.probesSeen.Load() }

// ServiceRef is a ground-truth record of one live service.
type ServiceRef struct {
	Addr      netip.Addr
	Port      uint16
	Transport entity.Transport
	Protocol  string
	Country   string
	Cloud     bool
	Pseudo    bool
	ICS       bool
}

// LiveServices enumerates ground truth at time t. Pseudo-host "services" are
// excluded unless includePseudo is set (the paper filters them from its
// ground-truth subsample).
func (n *Internet) LiveServices(t time.Time, includePseudo bool) []ServiceRef {
	var out []ServiceRef
	for _, a := range n.addrs {
		h := n.hosts[a]
		if h.Pseudo {
			if includePseudo {
				out = append(out, ServiceRef{Addr: a, Pseudo: true})
			}
			continue
		}
		if h.Honeypot || h.Tarpit {
			// Honeypot "services" are bait, and a tarpit masks the host's
			// real slots — neither belongs in legitimate ground truth.
			continue
		}
		for _, s := range h.Slots {
			if !s.AliveAt(n.epoch, t) {
				continue
			}
			p := protocols.Lookup(s.Spec.Protocol)
			out = append(out, ServiceRef{
				Addr: a, Port: s.Port, Transport: s.Transport,
				Protocol: s.Spec.Protocol, Country: h.Country,
				Cloud: h.Cloud, ICS: p != nil && p.ICS,
			})
		}
	}
	return out
}

// SlotAt returns the slot at (addr, port, transport) regardless of liveness,
// or nil. Evaluation uses it to distinguish "service gone" from "never was".
func (n *Internet) SlotAt(addr netip.Addr, port uint16, transport entity.Transport) *Slot {
	h := n.hosts[addr]
	if h == nil {
		return nil
	}
	for _, s := range h.Slots {
		if s.Port == port && s.Transport == transport {
			return s
		}
	}
	return nil
}
