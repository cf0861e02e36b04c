package ditl

import (
	"context"
	"fmt"
	"io"
	"time"

	"anycastctx/internal/dnssim"
	"anycastctx/internal/dnswire"
	"anycastctx/internal/ipaddr"
	"anycastctx/internal/obs"
	"anycastctx/internal/pcapio"
	"anycastctx/internal/rng"
)

// LetterAnycastAddr returns the anycast service address used by letter li
// in emitted captures (stable, outside the simulator's allocation pool).
func LetterAnycastAddr(li int) ipaddr.Addr {
	return ipaddr.AddrFrom4(199, 7, byte(li), 53)
}

// captureStart anchors emitted capture timestamps at the 2018 DITL window.
var captureStart = time.Date(2018, time.April, 10, 0, 0, 0, 0, time.UTC)

// captureEmitter streams one site capture's records into a pcap writer.
type captureEmitter struct {
	pw *pcapio.Writer
	// cutoff is the site-withdrawal time; zero when the site stays up.
	cutoff  time.Time
	max     int
	written int
	// dns and pkt are the encode buffers every message and packet of the
	// capture is serialized into, copied out by the writer, then
	// overwritten.
	dns, pkt []byte
	// server answers the contributors' queries; nil without a zone.
	server *dnssim.RootServer
}

// emit writes one packet, honouring the site withdrawal cutoff: packets
// timestamped after the cut never reach the capture (they are counted as
// withdrawn).
func (e *captureEmitter) emit(ts time.Time, pkt []byte) error {
	if !e.cutoff.IsZero() && ts.After(e.cutoff) {
		obsPcapWithdrawn.Inc()
		return nil
	}
	if err := e.pw.WritePacket(ts, pkt); err != nil {
		return err
	}
	e.written++
	return nil
}

// emitUDP and emitTCP serialize one packet into the scratch buffer and
// emit it; the writer copies it out before the next reuses the buffer.
func (e *captureEmitter) emitUDP(ts time.Time, ip pcapio.IPv4, udp pcapio.UDP, payload []byte) error {
	pkt, err := pcapio.SerializeUDPInto(e.pkt, &ip, &udp, payload)
	if err != nil {
		return err
	}
	e.pkt = pkt
	return e.emit(ts, pkt)
}

func (e *captureEmitter) emitTCP(ts time.Time, ip pcapio.IPv4, tcp pcapio.TCP, payload []byte) error {
	pkt, err := pcapio.SerializeTCPInto(e.pkt, &ip, &tcp, payload)
	if err != nil {
		return err
	}
	e.pkt = pkt
	return e.emit(ts, pkt)
}

// encode encodes a DNS message into the scratch buffer.
func (e *captureEmitter) encode(m *dnswire.Message) ([]byte, error) {
	b, err := m.EncodeInto(e.dns)
	if err == nil {
		e.dns = b
	}
	return b, err
}

// full reports that the capture holds maxPackets packets.
func (e *captureEmitter) full() bool { return e.written >= e.max }

// EmitSiteCaptureCtx writes a sampled 48-hour pcap of the traffic
// arriving at one site of one letter: UDP query/response pairs plus
// occasional TCP handshakes, drawn from the recursives whose catchment
// includes the site and from junk sources. At most maxPackets packets are
// written. A traced run records one "ditl.capture" span per emitted site
// capture under the span carried by ctx.
//
// Randomness is derived per entity — Split(seed, PhaseCaptureJunk/Rec,
// letter).Fork(site).Fork(packet-or-recursive) — so each contributor's
// records depend only on (campaign, seed, contributor), and the output
// bytes only on (campaign, seed, maxPackets).
//
// Emission is serial and streams straight into the pcap writer: the junk
// block first, then each contributor in order, stopping at maxPackets.
func (c *Campaign) EmitSiteCaptureCtx(ctx context.Context, w io.Writer, li, siteID, maxPackets int, seed int64) (int, error) {
	_, span := obs.StartSpanCtx(ctx, "ditl.capture")
	defer span.End()
	if li < 0 || li >= len(c.Letters) {
		return 0, fmt.Errorf("ditl: letter index %d out of range", li)
	}
	if siteID < 0 || siteID >= len(c.Letters[li].Sites) {
		return 0, fmt.Errorf("ditl: site %d out of range for letter %s", siteID, c.LetterNames[li])
	}
	pw, err := pcapio.NewWriter(w)
	if err != nil {
		return 0, err
	}
	// Site withdrawal (Tangled-style mid-run failure): when the fault
	// policy withdraws this site, packets timestamped after the cut-off
	// never reach the capture. Withdrawal is keyed on (letter, site).
	e := captureEmitter{pw: pw, max: maxPackets}
	if frac, withdrawn := c.Faults.SiteWithdrawCut(li, siteID); withdrawn {
		e.cutoff = captureStart.Add(time.Duration(frac * float64(48*time.Hour)))
	}
	dst := LetterAnycastAddr(li)

	// Contributors: recursives with volume to this site.
	type contrib struct {
		recIdx int
		vol    float64
		quota  int // packet draws this contributor makes
	}
	var contribs []contrib
	var totalVol float64
	for ri := range c.Pop.Recursives {
		a := c.At(li, ri)
		if !a.Reachable {
			continue
		}
		for _, s := range a.Sites() {
			if s.SiteID != siteID {
				continue
			}
			vol := c.Rates[ri].RootTotalPerDay() * a.LetterWeight * s.Frac
			if vol > 0.5 {
				contribs = append(contribs, contrib{recIdx: ri, vol: vol})
				totalVol += vol
			}
		}
	}
	if len(contribs) == 0 {
		return 0, pw.Close()
	}
	obsPcapCaptures.Inc()

	// Plan deterministic per-contributor packet quotas up front, in
	// stable contributor order after the junk block. Every contributor
	// draw emits at least two packets (a UDP query/response pair), so
	// each quota is clamped to the draws that could still fit under the
	// maxPackets cap, and once the cumulative minimum covers the budget
	// later contributors drop to zero. The clamp is part of the output:
	// under site withdrawal the withdrawn records do not count toward the
	// cap, so it decides which contributors emit at all.
	junkCount := maxPackets / 20
	if junkCount > len(c.JunkSources) {
		junkCount = len(c.JunkSources)
	}
	budget := maxPackets - junkCount
	minEmitted := 0
	for i := range contribs {
		cb := &contribs[i]
		if minEmitted >= budget {
			continue // quota stays 0
		}
		n := int(float64(budget) * cb.vol / totalVol)
		if rem := (budget - minEmitted + 1) / 2; n > rem {
			n = rem
		}
		if n < 1 {
			n = 1
		}
		cb.quota = n
		minEmitted += 2 * n
	}

	e.dns, e.pkt = make([]byte, 0, 512), make([]byte, 0, 2048)
	if c.Zone != nil {
		e.server = dnssim.NewRootServer(c.Zone, c.LetterNames[li])
	}
	if err := c.emitJunk(&e, junkCount, li, siteID, dst, seed); err != nil {
		return e.written, err
	}
	for _, cb := range contribs {
		// Quotas drop to zero for good once the budget is covered.
		if cb.quota == 0 || e.full() {
			break
		}
		if err := c.emitContrib(&e, cb.recIdx, cb.quota, li, siteID, dst, seed); err != nil {
			return e.written, err
		}
	}
	obsPcapPackets.Add(uint64(e.written))
	return e.written, pw.Close()
}

// emitJunk writes the junk-source block: one spoofed-looking probe query
// per quota slot, each drawn from its own per-packet stream.
func (c *Campaign) emitJunk(e *captureEmitter, quota, li, siteID int, dst ipaddr.Addr, seed int64) error {
	base := rng.Split(seed, rng.PhaseCaptureJunk, uint64(li)).Fork(uint64(siteID))
	for i := 0; i < quota && !e.full(); i++ {
		st := base.Fork(uint64(i))
		src := c.JunkSources[st.Intn(len(c.JunkSources))]
		ts := captureStart.Add(time.Duration(st.Int63n(48 * int64(time.Hour))))
		qb, err := e.encode(dnswire.NewQuery(uint16(st.Intn(65536)), randomProbeName(&st), dnswire.TypeA))
		if err != nil {
			return err
		}
		if err := e.emitUDP(ts, pcapio.IPv4{Src: src, Dst: dst, ID: uint16(st.Intn(65536))},
			pcapio.UDP{SrcPort: uint16(1024 + st.Intn(60000)), DstPort: 53}, qb); err != nil {
			return err
		}
	}
	return nil
}

// emitContrib writes one contributing recursive's packets: UDP
// query/response pairs with occasional TCP handshakes, all drawn from
// the contributor's own stream. It stops as soon as the capture is full.
func (c *Campaign) emitContrib(e *captureEmitter, recIdx, quota, li, siteID int, dst ipaddr.Addr, seed int64) error {
	st := rng.Split(seed, rng.PhaseCaptureRec, uint64(li)).Fork(uint64(siteID)).Fork(uint64(recIdx))
	rates := c.Rates[recIdx]
	egress := c.Egress(recIdx)
	rtt := time.Duration(c.At(li, recIdx).BaseRTTMs * float64(time.Millisecond))
	for k := 0; k < quota; k++ {
		src := egress[st.Intn(len(egress))]
		ts := captureStart.Add(time.Duration(st.Int63n(48 * int64(time.Hour))))
		qtype, qname := sampleQuery(rates.RootValidPerDay, rates.RootInvalidPerDay, rates.RootPTRPerDay, &st)
		q := dnswire.NewQuery(uint16(st.Intn(65536)), qname, qtype)
		// Most modern resolvers advertise EDNS buffer sizes.
		if st.Float64() < 0.8 {
			q.SetEDNS(4096, st.Float64() < 0.5)
		}
		qb, err := e.encode(q)
		if err != nil {
			return err
		}
		srcPort := uint16(1024 + st.Intn(60000))

		if st.Float64() < rates.TCPShare {
			// TCP handshake: SYN in, SYN-ACK out, ACK+query in.
			seq := st.Uint32()
			if err := e.emitTCP(ts, pcapio.IPv4{Src: src, Dst: dst},
				pcapio.TCP{SrcPort: srcPort, DstPort: 53, Seq: seq, Flags: pcapio.FlagSYN}, nil); err != nil || e.full() {
				return err
			}
			if err := e.emitTCP(ts.Add(time.Microsecond), pcapio.IPv4{Src: dst, Dst: src},
				pcapio.TCP{SrcPort: 53, DstPort: srcPort, Seq: st.Uint32(), Ack: seq + 1,
					Flags: pcapio.FlagSYN | pcapio.FlagACK}, nil); err != nil || e.full() {
				return err
			}
			if err := e.emitTCP(ts.Add(rtt), pcapio.IPv4{Src: src, Dst: dst},
				pcapio.TCP{SrcPort: srcPort, DstPort: 53, Seq: seq + 1, Ack: 1,
					Flags: pcapio.FlagACK | pcapio.FlagPSH}, qb); err != nil || e.full() {
				return err
			}
			continue
		}

		if err := e.emitUDP(ts, pcapio.IPv4{Src: src, Dst: dst, ID: uint16(k)},
			pcapio.UDP{SrcPort: srcPort, DstPort: 53}, qb); err != nil || e.full() {
			return err
		}
		// Response packet (server-side captures see both directions).
		// With a zone attached, the authoritative server produces real
		// referrals/NXDOMAINs; otherwise synthesize a plain response.
		// The query wire bytes are dead once the query packet is
		// written, so the response reuses both scratch buffers.
		var resp *dnswire.Message
		if e.server != nil {
			resp = e.server.Respond(q)
		} else {
			resp = dnswire.NewResponse(q, dnswire.RCodeNoError, nil)
			if qtype == dnswire.TypeA && len(qname) > 0 {
				resp.Header.RCode = dnswire.RCodeNXDomain
			}
		}
		rb, err := e.encode(resp)
		if err != nil {
			return err
		}
		if err := e.emitUDP(ts.Add(50*time.Microsecond), pcapio.IPv4{Src: dst, Dst: src, ID: uint16(k)},
			pcapio.UDP{SrcPort: 53, DstPort: srcPort}, rb); err != nil || e.full() {
			return err
		}
	}
	return nil
}

// sampleQuery draws a query type/name matching the recursive's traffic mix.
func sampleQuery(valid, invalid, ptr float64, st *rng.Stream) (dnswire.Type, string) {
	total := valid + invalid + ptr
	if total <= 0 {
		return dnswire.TypeNS, "com"
	}
	u := st.Float64() * total
	switch {
	case u < valid:
		return dnswire.TypeNS, validTLDName(st)
	case u < valid+invalid:
		return dnswire.TypeA, randomProbeName(st)
	default:
		return dnswire.TypePTR, fmt.Sprintf("%d.%d.%d.%d.in-addr.arpa",
			st.Intn(256), st.Intn(256), st.Intn(256), st.Intn(256))
	}
}

var commonTLDs = []string{"com", "net", "org", "de", "cn", "uk", "nl", "ru", "jp", "fr", "io", "info"}

func validTLDName(st *rng.Stream) string {
	return commonTLDs[st.Intn(len(commonTLDs))]
}

func randomProbeName(st *rng.Stream) string {
	var b [15]byte
	n := 7 + st.Intn(9)
	for i := range b[:n] {
		b[i] = byte('a' + st.Intn(26))
	}
	return string(b[:n])
}

// CaptureSummary aggregates a read-back capture. The degradation-funnel
// fields are all zero for a clean capture; for damaged input they account
// for every record the summarizer read but could not use.
type CaptureSummary struct {
	Packets     int
	UDPQueries  int
	TCPPackets  int
	Responses   int
	NXDomain    int
	PTRQueries  int
	Sources     map[ipaddr.Slash24Key]int
	FirstToLast time.Duration

	// RecordsRead counts every record the pcap reader returned,
	// including ones skipped below; Packets counts only records that
	// decoded fully into the summary.
	RecordsRead int
	// TruncatedRecords were stored incomplete (included < original).
	TruncatedRecords int
	// MalformedPackets failed IPv4/transport decoding.
	MalformedPackets int
	// MalformedDNS carried a payload dnswire could not parse.
	MalformedDNS int
	// DroppedRecords and SkippedBytes are reader-level recovery events
	// (bad framing, resyncs, mid-record EOF).
	DroppedRecords int
	SkippedBytes   int
}

// Skipped returns the number of read records the summary excluded.
func (s *CaptureSummary) Skipped() int {
	return s.TruncatedRecords + s.MalformedPackets + s.MalformedDNS
}

// SummarizeCapture decodes a pcap stream (as written by EmitSiteCaptureCtx)
// back into aggregate counts — the first stage of the analysis pipeline,
// exercising the same decode path a DITL consumer would. Like that
// consumer (which discards ~64% of raw DITL input as junk, §2.1), it
// degrades gracefully: truncated records, undecodable packets, and
// malformed DNS payloads are skipped and counted — in the summary and in
// the ditl.capture_* obs counters — never fatal. Only an unreadable pcap
// file header returns an error.
func SummarizeCapture(r io.Reader) (*CaptureSummary, error) {
	pr, err := pcapio.NewReader(r)
	if err != nil {
		return nil, err
	}
	pr.SetLenient(true)
	s := &CaptureSummary{Sources: make(map[ipaddr.Slash24Key]int)}
	var first, last time.Time
	// One record buffer serves the whole capture: nothing below keeps a
	// reference to a record's bytes once the next record is read.
	buf := make([]byte, 0, 2048)
	for {
		rec, err := pr.NextInto(buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		s.RecordsRead++
		if rec.Truncated {
			s.TruncatedRecords++
			obsSumTruncated.Inc()
			continue
		}
		pkt, err := pcapio.DecodePacket(rec.Data)
		if err != nil {
			s.MalformedPackets++
			obsSumMalformedPkt.Inc()
			continue
		}
		var msg dnswire.Summary
		hasDNS := len(pkt.Payload) > 0
		if hasDNS {
			if msg, err = dnswire.Scan(pkt.Payload); err != nil {
				s.MalformedDNS++
				obsSumMalformedDNS.Inc()
				continue
			}
		}
		s.Packets++
		if first.IsZero() || rec.Time.Before(first) {
			first = rec.Time
		}
		if rec.Time.After(last) {
			last = rec.Time
		}
		if pkt.IPv4.Protocol == pcapio.ProtoTCP {
			s.TCPPackets++
		}
		if !hasDNS {
			continue
		}
		if msg.Header.Response {
			s.Responses++
			if msg.Header.RCode == dnswire.RCodeNXDomain {
				s.NXDomain++
			}
			continue
		}
		if pkt.IPv4.Protocol == pcapio.ProtoUDP {
			s.UDPQueries++
		}
		s.Sources[ipaddr.Key24(pkt.IPv4.Src)]++
		if msg.QType == dnswire.TypePTR {
			s.PTRQueries++
		}
	}
	st := pr.Stats()
	s.DroppedRecords = st.Dropped
	s.SkippedBytes = st.BytesSkipped
	// The summary's funnel must reconcile with the reader's: every record
	// the reader returned sits in exactly one bucket (decoded, truncated,
	// malformed packet, or malformed DNS — a record that is both truncated
	// and malformed counts once, as truncated), and the truncated bucket
	// agrees with the reader's own truncation count. A mismatch means the
	// funnel double-counted or lost a record, which would silently skew
	// every degradation number downstream.
	if s.RecordsRead != st.Records || s.TruncatedRecords != st.Truncated ||
		s.Packets+s.Skipped() != s.RecordsRead {
		return nil, fmt.Errorf(
			"ditl: capture funnel does not reconcile with reader stats: %d read (reader %d), %d truncated (reader %d), %d decoded + %d skipped",
			s.RecordsRead, st.Records, s.TruncatedRecords, st.Truncated, s.Packets, s.Skipped())
	}
	if !first.IsZero() {
		s.FirstToLast = last.Sub(first)
	}
	return s, nil
}
