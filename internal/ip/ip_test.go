package ip

import (
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseAddrRoundTrip(t *testing.T) {
	cases := []string{"0.0.0.0", "1.2.3.4", "10.0.0.1", "192.168.255.254", "255.255.255.255"}
	for _, s := range cases {
		a, err := ParseAddr(s)
		if err != nil {
			t.Fatalf("ParseAddr(%q): %v", s, err)
		}
		if a.String() != s {
			t.Errorf("round trip %q -> %q", s, a.String())
		}
	}
}

func TestParseAddrErrors(t *testing.T) {
	bad := []string{"", "1.2.3", "1.2.3.4.5", "256.0.0.1", "1.2.3.x", "-1.2.3.4", "1..2.3"}
	for _, s := range bad {
		if _, err := ParseAddr(s); err == nil {
			t.Errorf("ParseAddr(%q) succeeded, want error", s)
		}
	}
}

func TestParseAddrRoundTripProperty(t *testing.T) {
	f := func(v uint32) bool {
		a := AddrFrom4(v)
		got, err := ParseAddr(a.String())
		return err == nil && got == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMakeAddrOctets(t *testing.T) {
	a := MakeAddr(10, 20, 30, 40)
	b1, b2, b3, b4 := a.Octets()
	if b1 != 10 || b2 != 20 || b3 != 30 || b4 != 40 {
		t.Errorf("Octets() = %d.%d.%d.%d", b1, b2, b3, b4)
	}
	if a.String() != "10.20.30.40" {
		t.Errorf("String() = %q", a.String())
	}
}

func TestSlash24(t *testing.T) {
	a := MustParseAddr("198.51.100.77")
	got := a.Slash24()
	want := MustParsePrefix("198.51.100.0/24")
	if got != want {
		t.Errorf("Slash24() = %v, want %v", got, want)
	}
	if !got.Contains(a) {
		t.Error("Slash24 does not contain the address")
	}
}

func TestPrefixParseAndString(t *testing.T) {
	p := MustParsePrefix("10.1.2.0/23")
	if p.String() != "10.1.2.0/23" {
		t.Errorf("String() = %q", p.String())
	}
	// Host bits are canonicalized away.
	q := MustParsePrefix("10.1.3.9/23")
	if q != p {
		t.Errorf("canonicalization: %v != %v", q, p)
	}
	// Bare address is a /32.
	r := MustParsePrefix("8.8.8.8")
	if r.Bits != 32 || r.Base != MustParseAddr("8.8.8.8") {
		t.Errorf("bare address: %v", r)
	}
}

func TestParsePrefixErrors(t *testing.T) {
	bad := []string{"1.2.3.4/33", "1.2.3.4/-1", "1.2.3/24", "x/24", "1.2.3.4/"}
	for _, s := range bad {
		if _, err := ParsePrefix(s); err == nil {
			t.Errorf("ParsePrefix(%q) succeeded, want error", s)
		}
	}
}

func TestPrefixContains(t *testing.T) {
	p := MustParsePrefix("192.0.2.0/24")
	if !p.Contains(MustParseAddr("192.0.2.0")) || !p.Contains(MustParseAddr("192.0.2.255")) {
		t.Error("prefix should contain its first/last address")
	}
	if p.Contains(MustParseAddr("192.0.3.0")) || p.Contains(MustParseAddr("192.0.1.255")) {
		t.Error("prefix contains out-of-range address")
	}
	all := MustParsePrefix("0.0.0.0/0")
	if !all.Contains(MustParseAddr("255.255.255.255")) {
		t.Error("/0 should contain everything")
	}
}

func TestPrefixOverlaps(t *testing.T) {
	a := MustParsePrefix("10.0.0.0/8")
	b := MustParsePrefix("10.5.0.0/16")
	c := MustParsePrefix("11.0.0.0/8")
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("nested prefixes must overlap")
	}
	if a.Overlaps(c) {
		t.Error("disjoint prefixes must not overlap")
	}
	if !a.Overlaps(a) {
		t.Error("prefix must overlap itself")
	}
}

func TestPrefixAddrRange(t *testing.T) {
	p := MustParsePrefix("172.16.4.0/22")
	if p.NumAddrs() != 1024 {
		t.Errorf("NumAddrs = %d", p.NumAddrs())
	}
	if p.First() != MustParseAddr("172.16.4.0") {
		t.Errorf("First = %v", p.First())
	}
	if p.Last() != MustParseAddr("172.16.7.255") {
		t.Errorf("Last = %v", p.Last())
	}
	if p.Nth(0) != p.First() || p.Nth(1023) != p.Last() {
		t.Error("Nth endpoints wrong")
	}
}

func TestPrefixNthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Nth out of range did not panic")
		}
	}()
	MustParsePrefix("10.0.0.0/24").Nth(256)
}

func TestPrefixContainsIffNthProperty(t *testing.T) {
	// Every address generated by Nth is contained in the prefix.
	f := func(base uint32, bits uint8, idx uint64) bool {
		p := MakePrefix(AddrFrom4(base), bits%33)
		return p.Contains(p.Nth(idx % p.NumAddrs()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseBlocklist(t *testing.T) {
	input := `# exclusion requests, synchronized across origins
10.0.0.0/8      # RFC1918
192.0.2.0/24 documentation range
198.51.100.77   # single host opt-out

# trailing comment-only line
`
	set, err := ParseBlocklist(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 3 {
		t.Fatalf("Len = %d", set.Len())
	}
	for _, in := range []string{"10.1.2.3", "192.0.2.200", "198.51.100.77"} {
		if !set.Contains(MustParseAddr(in)) {
			t.Errorf("%s should be blocked", in)
		}
	}
	for _, out := range []string{"11.0.0.1", "198.51.100.78"} {
		if set.Contains(MustParseAddr(out)) {
			t.Errorf("%s should not be blocked", out)
		}
	}
}

func TestParseBlocklistErrors(t *testing.T) {
	if _, err := ParseBlocklist(strings.NewReader("not-an-ip\n")); err == nil {
		t.Error("garbage line accepted")
	}
	if _, err := ParseBlocklist(strings.NewReader("10.0.0.0/33\n")); err == nil {
		t.Error("bad prefix accepted")
	}
	set, err := ParseBlocklist(strings.NewReader(""))
	if err != nil || set.Len() != 0 {
		t.Error("empty blocklist should parse to empty set")
	}
}

// --- dual-stack tests ---

func TestParseAddr6RoundTrip(t *testing.T) {
	cases := []string{
		"::1", "2001:db8::1", "fe80::", "2001:db8:1234:5678:9abc:def0:1234:5678",
		"2001:db8::8:800:200c:417a", "ff02::2",
	}
	for _, s := range cases {
		a, err := ParseAddr(s)
		if err != nil {
			t.Fatalf("ParseAddr(%q): %v", s, err)
		}
		if a.Is4() {
			t.Errorf("ParseAddr(%q).Is4() = true", s)
		}
		if a.String() != s {
			t.Errorf("round trip %q -> %q", s, a.String())
		}
	}
}

func TestParseAddr6Errors(t *testing.T) {
	bad := []string{":::", "2001:db8", "2001:db8::1::2", "g::1", "fe80::1%eth0"}
	for _, s := range bad {
		if _, err := ParseAddr(s); err == nil {
			t.Errorf("ParseAddr(%q) succeeded, want error", s)
		}
	}
}

func TestAddrFamilies(t *testing.T) {
	v4 := MustParseAddr("192.0.2.1")
	if !v4.Is4() || v4.Is6() || v4.IsZero() {
		t.Errorf("v4 family flags wrong: Is4=%v Is6=%v IsZero=%v", v4.Is4(), v4.Is6(), v4.IsZero())
	}
	if v4.V4() != 0xc0000201 {
		t.Errorf("V4() = %#x", v4.V4())
	}
	if AddrFrom4(v4.V4()) != v4 {
		t.Error("AddrFrom4(V4()) is not the identity")
	}
	v6 := MustParseAddr("2001:db8::1")
	if v6.Is4() || !v6.Is6() {
		t.Error("v6 family flags wrong")
	}
	if (Addr{}).Is4() || !(Addr{}).IsZero() {
		t.Error("zero Addr must be IsZero and not Is4")
	}
	if AddrFrom128(v6.Hi(), v6.Lo()) != v6 {
		t.Error("AddrFrom128(Hi, Lo) is not the identity")
	}
}

func TestV4PanicsOnV6(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("V4 of a v6 address did not panic")
		}
	}()
	MustParseAddr("2001:db8::1").V4()
}

func TestAddrOrdering(t *testing.T) {
	inOrder := []Addr{
		MustParseAddr("0.0.0.0"),
		MustParseAddr("9.9.9.9"),
		MustParseAddr("255.255.255.255"),
		MustParseAddr("2001:db8::"),
		MustParseAddr("2001:db8::1"),
		MustParseAddr("2001:db9::"),
	}
	for i := 1; i < len(inOrder); i++ {
		a, b := inOrder[i-1], inOrder[i]
		if !a.Less(b) || b.Less(a) || a.Compare(b) != -1 || b.Compare(a) != 1 {
			t.Errorf("ordering broken between %v and %v", a, b)
		}
	}
	a := inOrder[3]
	if a.Compare(a) != 0 || a.Less(a) {
		t.Error("self-comparison broken")
	}
}

func TestWord64V4Contract(t *testing.T) {
	// For IPv4 Word64 must equal the raw uint32 value: every keyed-hash
	// derivation in the study feeds addresses through this projection, and
	// the golden datasets pin the resulting streams.
	f := func(v uint32) bool {
		a := AddrFrom4(v)
		return a.Word64() == uint64(v) && a.Word32() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// v6 projections are deterministic and distinguish hi-only and lo-only
	// differences.
	x := MustParseAddr("2001:db8::1")
	if x.Word64() != x.Word64() {
		t.Error("Word64 not deterministic")
	}
	if x.Word64() == MustParseAddr("2001:db8::2").Word64() {
		t.Error("Word64 ignores lo word")
	}
	if x.Word64() == MustParseAddr("2001:db9::1").Word64() {
		t.Error("Word64 ignores hi word")
	}
}

func TestAddrNextAddSub(t *testing.T) {
	a := MustParseAddr("10.0.0.255")
	if a.Next() != MustParseAddr("10.0.1.0") {
		t.Errorf("Next = %v", a.Next())
	}
	if a.Add(257) != MustParseAddr("10.0.2.0") {
		t.Errorf("Add(257) = %v", a.Add(257))
	}
	if a.Next().Sub(1) != a {
		t.Error("Sub does not invert Next")
	}
	// 128-bit carry across the word boundary.
	b := AddrFrom128(1, ^uint64(0))
	if b.Next() != AddrFrom128(2, 0) {
		t.Errorf("v6 carry: Next = %v", b.Next())
	}
	if b.Next().Sub(1) != b {
		t.Error("v6 borrow: Sub does not invert Next")
	}
}

func TestSlash24V6IsSlash64(t *testing.T) {
	a := MustParseAddr("2001:db8:1:2:3:4:5:6")
	got := a.Slash24()
	want := MustParsePrefix("2001:db8:1:2::/64")
	if got != want {
		t.Errorf("v6 Slash24() = %v, want %v", got, want)
	}
	if got != a.Slash64() {
		t.Errorf("Slash64() = %v, want %v", a.Slash64(), got)
	}
	if !got.Contains(a) {
		t.Error("block does not contain the address")
	}
}

func TestPrefix6(t *testing.T) {
	p := MustParsePrefix("2001:db8::/32")
	if p.String() != "2001:db8::/32" {
		t.Errorf("String() = %q", p.String())
	}
	if !p.Contains(MustParseAddr("2001:db8:ffff::1")) {
		t.Error("prefix should contain a nested address")
	}
	if p.Contains(MustParseAddr("2001:db9::")) {
		t.Error("prefix contains out-of-range address")
	}
	if p.Contains(MustParseAddr("32.1.13.184")) {
		t.Error("v6 prefix must not contain a v4 address")
	}
	if MustParsePrefix("0.0.0.0/0").Contains(MustParseAddr("::1")) {
		t.Error("v4 prefix must not contain a v6 address")
	}
	// NumAddrs saturates above /64; exact below.
	if p.NumAddrs() != ^uint64(0) {
		t.Errorf("/32 NumAddrs = %d, want saturation", p.NumAddrs())
	}
	q := MustParsePrefix("2001:db8::/120")
	if q.NumAddrs() != 256 {
		t.Errorf("/120 NumAddrs = %d", q.NumAddrs())
	}
	if q.Last() != MustParseAddr("2001:db8::ff") {
		t.Errorf("Last = %v", q.Last())
	}
	if q.Nth(255) != q.Last() {
		t.Errorf("Nth(255) = %v", q.Nth(255))
	}
	// Canonicalization clears v6 host bits.
	r := MustParsePrefix("2001:db8::beef/64")
	if r.Base != MustParseAddr("2001:db8::") {
		t.Errorf("canonical base = %v", r.Base)
	}
	// Bare v6 address parses as /128.
	h := MustParsePrefix("2001:db8::7")
	if h.Bits != 128 || h.Base != MustParseAddr("2001:db8::7") {
		t.Errorf("bare v6 = %v", h)
	}
	if _, err := ParsePrefix("2001:db8::/129"); err == nil {
		t.Error("/129 accepted")
	}
	if MustParsePrefix("2001:db8::/32").Overlaps(MustParsePrefix("32.1.13.184/8")) {
		t.Error("cross-family prefixes must not overlap")
	}
	if !MustParsePrefix("2001:db8::/32").Overlaps(MustParsePrefix("2001:db8:5::/48")) {
		t.Error("nested v6 prefixes must overlap")
	}
}

func TestParseBlocklist6(t *testing.T) {
	input := "10.0.0.0/8\n2001:db8::/32\nfd00::1\n"
	set, err := ParseBlocklist(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if !set.Contains(MustParseAddr("2001:db8:1::2")) {
		t.Error("v6 prefix member not blocked")
	}
	if !set.Contains(MustParseAddr("fd00::1")) {
		t.Error("bare v6 host not blocked")
	}
	if set.Contains(MustParseAddr("2001:db9::")) {
		t.Error("v6 non-member blocked")
	}
	if !set.Contains(MustParseAddr("10.1.2.3")) {
		t.Error("v4 member not blocked")
	}
}

// TestAddrAppendTo pins AppendTo to String (and to net/netip's text form)
// across both families, and checks it appends into the caller's capacity
// without allocating.
func TestAddrAppendTo(t *testing.T) {
	for _, s := range []string{
		"0.0.0.0", "1.2.3.4", "10.0.0.255", "192.0.2.41", "255.255.255.255",
		"::", "::1", "2001:db8::1", "2001:db8:0:1:1:1:1:1", "fe80::1:2",
	} {
		a := MustParseAddr(s)
		want := netip.MustParseAddr(s).String()
		if got := string(a.AppendTo([]byte("x="))); got != "x="+want {
			t.Errorf("AppendTo(%s) = %q, want %q", s, got, "x="+want)
		}
		if a.String() != want {
			t.Errorf("String(%s) = %q, want %q", s, a.String(), want)
		}
	}
	a := MustParseAddr("203.0.113.200")
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { buf = a.AppendTo(buf[:0]) }); n != 0 {
		t.Errorf("AppendTo allocates %.1f per call, want 0", n)
	}
}
