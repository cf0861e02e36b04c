package dnssim

import (
	"strings"

	"anycastctx/internal/dnswire"
)

// RootServer is the authoritative side of the root service: it answers
// wire-format DNS queries from the root zone — referrals with NS records
// and glue for existing TLDs, NXDOMAIN for everything else. The DITL
// capture generator uses it so emitted response packets carry real
// referral payloads. A RootServer memoizes answers and is not safe for
// concurrent use.
type RootServer struct {
	zone *Zone
	// letter identifies which letter this server instance belongs to
	// (cosmetic: appears in the SOA MNAME).
	letter string
	// soa is the authority section of negative responses, built once: it
	// depends only on the letter, and NXDOMAINs dominate capture traffic,
	// so rebuilding it per response was a measurable allocation source.
	soa []dnswire.RR
	// referrals memoizes each TLD's NS RRset and glue.
	referrals map[*TLD]referral
	// scratch holds the encoding of the UDP-size check.
	scratch []byte
}

// referral is the authority and additional sections of a TLD referral.
type referral struct {
	ns, glue []dnswire.RR
}

// NewRootServer creates an authoritative server over zone.
func NewRootServer(zone *Zone, letter string) *RootServer {
	s := &RootServer{zone: zone, letter: letter, referrals: make(map[*TLD]referral)}
	s.soa = []dnswire.RR{{
		Name:  ".",
		Type:  dnswire.TypeSOA,
		Class: dnswire.ClassIN,
		TTL:   86400,
		RData: s.soaRData(),
	}}
	return s
}

// soaRData builds a minimal SOA record body for negative responses.
func (s *RootServer) soaRData() []byte {
	mname, err := dnswire.NameRData(strings.ToLower(s.letter) + ".root-servers.net")
	if err != nil {
		mname = []byte{0}
	}
	rname, err := dnswire.NameRData("nstld.verisign-grs.com")
	if err != nil {
		rname = []byte{0}
	}
	rd := append([]byte{}, mname...)
	rd = append(rd, rname...)
	// serial, refresh, retry, expire, minimum (the root's negative TTL).
	for _, v := range []uint32{2018041001, 1800, 900, 604800, 86400} {
		rd = append(rd, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	return rd
}

// Respond answers one query message. Unknown or malformed questions get
// FORMERR/NXDOMAIN as a real root would; queries for existing TLDs get a
// referral (authority NS set plus A glue for the glued nameservers).
// The authority and additional records are shared with other responses:
// appending to those sections is safe, rewriting their records is not.
func (s *RootServer) Respond(q *dnswire.Message) *dnswire.Message {
	if len(q.Questions) == 0 {
		m := dnswire.NewResponse(q, dnswire.RCodeFormErr, nil)
		return m
	}
	question := q.Questions[0]
	name := strings.TrimSuffix(question.Name, ".")

	// The root itself.
	if name == "" || name == "." {
		m := dnswire.NewResponse(q, dnswire.RCodeNoError, nil)
		return m
	}

	tldName := name
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		tldName = name[i+1:]
	}
	tld, ok := s.zone.Lookup(tldName)
	if !ok {
		m := dnswire.NewResponse(q, dnswire.RCodeNXDomain, nil)
		m.Authority = s.soa[:1:1]
		return m
	}

	// Referral: NS RRset in the authority section, glue in additional.
	// The sections are shared between responses, so they are capped: an
	// append (SetEDNS, say) copies instead of writing into the memo.
	ref := s.referral(tld)
	m := dnswire.NewResponse(q, dnswire.RCodeNoError, nil)
	m.Header.Authoritative = false // referrals are not authoritative answers
	m.Authority = ref.ns[:len(ref.ns):len(ref.ns)]
	m.Additional = ref.glue[:len(ref.glue):len(ref.glue)]
	// Truncate when the referral exceeds what the querier accepts over
	// UDP (classic 512 bytes without EDNS): strip the sections and set TC
	// so the client retries over TCP — the retries §3 mines for RTTs.
	if enc, err := m.EncodeInto(s.scratch); err == nil {
		s.scratch = enc
		if len(enc) > q.MaxUDPPayload() {
			m.Authority = nil
			m.Additional = nil
			m.Header.Truncated = true
		}
	}
	return m
}

// referral returns tld's memoized referral sections, building them on
// first use.
func (s *RootServer) referral(tld *TLD) referral {
	if ref, ok := s.referrals[tld]; ok {
		return ref
	}
	var ref referral
	for _, ns := range tld.NSNames {
		rd, err := dnswire.NameRData(ns)
		if err != nil {
			continue
		}
		ref.ns = append(ref.ns, dnswire.RR{
			Name:  tld.Name,
			Type:  dnswire.TypeNS,
			Class: dnswire.ClassIN,
			TTL:   TLDTTLSeconds,
			RData: rd,
		})
	}
	for i := 0; i < tld.GluedA && i < len(tld.NSNames); i++ {
		ref.glue = append(ref.glue, dnswire.RR{
			Name:  tld.NSNames[i],
			Type:  dnswire.TypeA,
			Class: dnswire.ClassIN,
			TTL:   TLDTTLSeconds,
			RData: glueAddr(tld.Name, i),
		})
	}
	s.referrals[tld] = ref
	return ref
}

// glueAddr derives a stable synthetic glue address for a TLD nameserver.
func glueAddr(tld string, i int) []byte {
	h := uint32(2166136261)
	for k := 0; k < len(tld); k++ {
		h = (h ^ uint32(tld[k])) * 16777619
	}
	// Stay inside a documentation-friendly block shape: 192.x.y.z style
	// public-looking addresses.
	return dnswire.ARData(192, byte(32+h%64), byte(h>>8), byte(30+i))
}
