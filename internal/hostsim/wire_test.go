package hostsim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/httpwire"
	"repro/internal/ip"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/sshwire"
	"repro/internal/tlslite"
)

// wireGolden pins the SHA-256 of every client opening flight and inline
// server response flight for a fixed server key, recorded from the
// original fmt/strings.Builder encoders. The append-style encoders must
// put exactly the same bytes on the wire.
var wireGolden = []struct{ host, proto, side, sum string }{
	{"10.1.2.3", "HTTP", "client", "eb097f7dc2067f605854339b66111ac8253d6335e5ebb741955035dd52ca42e3"},
	{"10.1.2.3", "HTTP", "server", "2be72cbf26e56dc768e8bdd7296f146988a310c33e690eff01d3adc38e7bc6dd"},
	{"10.1.2.3", "HTTPS", "client", "98c5dcfdd1a1496542a17bc0abeca8eb8cd4e28d28933e8442a685a59e8f3f0d"},
	{"10.1.2.3", "HTTPS", "server", "ed8a3896394b083a12f31bd00676f7e66e197cad951badd364b28b03fe575e7d"},
	{"10.1.2.3", "SSH", "client", "2a684c0a73d1e90ee410634e11ac2f1b15515ce90bf5fe533c140c97a0245eaa"},
	{"10.1.2.3", "SSH", "server", "9e592ad43710ea1ff6fe488ad79d56a0bbbb7fa042000633f816ab10b144700d"},
	{"172.16.9.200", "HTTP", "client", "91e35bd88a002df9747f215a10100de7dbfed456bfeac8c303a533bd7e129a36"},
	{"172.16.9.200", "HTTP", "server", "001c083fef00f5cfbb0c31ed0fdd15d553b5d90ff4d160cd1b041580e6b2c8cd"},
	{"172.16.9.200", "HTTPS", "client", "231db7706cc044467f89bbcea79b1582a986a5dc1b67c935b5e2f9ceee9ab1e4"},
	{"172.16.9.200", "HTTPS", "server", "a1c13502a2cabc2b4687bc9905dc5876c2a43f2e3e23c375292311655594c00f"},
	{"172.16.9.200", "SSH", "client", "2a684c0a73d1e90ee410634e11ac2f1b15515ce90bf5fe533c140c97a0245eaa"},
	{"172.16.9.200", "SSH", "server", "ecc94cfc3c86ffd2776306ff988115fa6ab4504850ee4f78b7ff7e45c377a387"},
	{"192.0.2.41", "HTTP", "client", "2907298541d23c07de18f7ff7f564fa253fb53eeb0ec6424a35671513eee0996"},
	{"192.0.2.41", "HTTP", "server", "ac91a1a4d34a62ce3cc2c082c43aa6e77c42c619432317ad9d8efde93bf8a1ea"},
	{"192.0.2.41", "HTTPS", "client", "569648151c7cab0b74246557cea9faacc54801a8dc6a67f671ea22a7578e4d8c"},
	{"192.0.2.41", "HTTPS", "server", "be99f89df2b329c1ae437c3186de37b3eeae1a1d604a8199033089df424c7c47"},
	{"192.0.2.41", "SSH", "client", "2a684c0a73d1e90ee410634e11ac2f1b15515ce90bf5fe533c140c97a0245eaa"},
	{"192.0.2.41", "SSH", "server", "c0ecc8b773bcbedb2eaa4a843d0e01a88315aa91c9bcd493bc554fe601ee680e"},
	{"1.0.0.1", "HTTP", "client", "2a4747fc9c2b6d1b609910b02e5aa2598295e36fd099042ce6a60234880903c6"},
	{"1.0.0.1", "HTTP", "server", "e77a8444ad17b746b4921e1395e0f0973a15a1c0b503a6367b2dc5e934a3a38b"},
	{"1.0.0.1", "HTTPS", "client", "d1224efbf0fe22a8802e61fe9cf4304d1874c03835117cef49f8bf23950a47fe"},
	{"1.0.0.1", "HTTPS", "server", "0eeb7a89549d4be74978bc343ed15ae92c34635f3bf945600cf59ed415051024"},
	{"1.0.0.1", "SSH", "client", "2a684c0a73d1e90ee410634e11ac2f1b15515ce90bf5fe533c140c97a0245eaa"},
	{"1.0.0.1", "SSH", "server", "63440fd934a6689c199b53526758eaf3df418bb0ebf3aff7c7b8188cf65ec3d1"},
	{"255.255.255.254", "HTTP", "client", "e440308515c9607b8e4b22bbd1ae2c81acb10db0ea519965ca8bba9c65927b60"},
	{"255.255.255.254", "HTTP", "server", "517b5fdebb5cb1b31e8a8850d2bab6b3374489f7f1d3e1c9ae68c5029c5c982c"},
	{"255.255.255.254", "HTTPS", "client", "323e76f3b6e28cdb9887ac67ca3fa35ed5fb886b4637328aff5146da55b80ea4"},
	{"255.255.255.254", "HTTPS", "server", "6e9ed9905b14ba9a331f77f394aca5def22615aa9385bb13e15818a400ef2e2d"},
	{"255.255.255.254", "SSH", "client", "2a684c0a73d1e90ee410634e11ac2f1b15515ce90bf5fe533c140c97a0245eaa"},
	{"255.255.255.254", "SSH", "server", "2ed5584b1ae7a32dab8211ee50e39952d95e864b9791c3625ba520c2f555213b"},
	{"2001:db8::1", "HTTP", "client", "07b430ec9c16abb41423213bc10b641720ef986216f3657ecb1c713cce3a5783"},
	{"2001:db8::1", "HTTP", "server", "30c214c4096e6eebc2f1236556996c6b290470dada1a3fa1fd45c0c8f11ec4bd"},
	{"2001:db8::1", "HTTPS", "client", "e0820cfd8a6b3af88e52ae0b4f461ad547a43bd1bd94de86f2ff1d28e7b9d82e"},
	{"2001:db8::1", "HTTPS", "server", "9f7b4f7ea40617c98af3dd0be811e23a052dc99a1eba53b9055d1b8e4a2bb8a0"},
	{"2001:db8::1", "SSH", "client", "2a684c0a73d1e90ee410634e11ac2f1b15515ce90bf5fe533c140c97a0245eaa"},
	{"2001:db8::1", "SSH", "server", "16583023fb9e84a05cf36763d37e07dea2d7af501bd4cb2463e8b9b981d6b90b"},
	{"2001:db8:ab:cd::42", "HTTP", "client", "3a60c5e53e14ae07e7ea74393f4faa00fe988d8fa2eaae2db76182d955a76b2a"},
	{"2001:db8:ab:cd::42", "HTTP", "server", "47e06327855d66ffe38275c09d15114117056c9d447da6d70af66b197e252886"},
	{"2001:db8:ab:cd::42", "HTTPS", "client", "b5801d6a5d71ee28e2748ec09967af1cd357d6cafb316d94ac56c42f9eb1f48e"},
	{"2001:db8:ab:cd::42", "HTTPS", "server", "19a6fde75c2eb53a6f96fffbe48e1d6c48dcf9d346a2491d04bbedf5419c9b63"},
	{"2001:db8:ab:cd::42", "SSH", "client", "2a684c0a73d1e90ee410634e11ac2f1b15515ce90bf5fe533c140c97a0245eaa"},
	{"2001:db8:ab:cd::42", "SSH", "server", "f69e8a61d8e9c7c4fd272981b787b200749b72746bb8813ffd4f931c975cd745"},
}

// TestWireBytesPinned replays the grab's client flights and the inline
// server's responses against wireGolden.
func TestWireBytesPinned(t *testing.T) {
	s := NewServer(rng.NewKey(1234))
	got := map[[3]string]string{}
	for _, g := range wireGolden {
		host := ip.MustParseAddr(g.host)
		if _, done := got[[3]string{g.host, "HTTP", "client"}]; done {
			continue
		}
		ch := tlslite.NewClientHello(rng.NewKey(5).DeriveN("ch", host.Word64()), host.AppendTo(nil))
		tlsFlight, err := ch.Append(nil)
		if err != nil {
			t.Fatal(err)
		}
		sshFlight, err := sshwire.AppendID(nil, sshwire.ID{ProtoVersion: "2.0", SoftwareVersion: "zgrab_ssh_0.x"})
		if err != nil {
			t.Fatal(err)
		}
		for p, client := range map[proto.Protocol][]byte{
			proto.HTTP:  httpwire.AppendRequest(nil, "GET", "/", host, "Mozilla/5.0 zgrab/0.x"),
			proto.HTTPS: tlsFlight,
			proto.SSH:   sshFlight,
		} {
			var server bytes.Buffer
			s.ServeInline(&server, client, host, p)
			c, sv := sha256.Sum256(client), sha256.Sum256(server.Bytes())
			got[[3]string{g.host, p.String(), "client"}] = hex.EncodeToString(c[:])
			got[[3]string{g.host, p.String(), "server"}] = hex.EncodeToString(sv[:])
		}
	}
	for _, g := range wireGolden {
		if sum := got[[3]string{g.host, g.proto, g.side}]; sum != g.sum {
			t.Errorf("%s %s %s flight: sha256 %s, want %s", g.host, g.proto, g.side, sum, g.sum)
		}
	}
}

// TestEncodersPinned pins the encoders' remaining shapes byte for byte: an
// alert, a ServerHello with a session ID, a ClientHello without SNI, SSH
// packets of every padding phase, an ID with comments, and responses with
// and without an explicit Content-Length.
func TestEncodersPinned(t *testing.T) {
	b := tlslite.AppendAlert(nil, 2, 40)
	sh := tlslite.ServerHello{Version: tlslite.VersionTLS12, CipherSuite: 0xc02f, SessionID: []byte{9, 9, 9}}
	b, err := sh.Append(b)
	if err != nil {
		t.Fatal(err)
	}
	ch := tlslite.NewClientHello(rng.NewKey(9), nil)
	if b, err = ch.Append(b); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 20; n++ {
		if b, err = sshwire.AppendPacket(b, bytes.Repeat([]byte{byte(n)}, n)); err != nil {
			t.Fatal(err)
		}
	}
	if b, err = sshwire.AppendID(b, sshwire.ID{ProtoVersion: "2.0", SoftwareVersion: "x", Comments: "hello world"}); err != nil {
		t.Fatal(err)
	}
	b = httpwire.AppendResponse(b, 404, "Not Found", []httpwire.Header{{Name: "Content-Length", Value: "3"}, {Name: "X", Value: "y"}}, []byte("abc"))
	b = httpwire.AppendResponse(b, 200, "OK", nil, nil)
	const want = "15030300020228160303002d020000290303000000000000000000000000000000000000000000000000000000000000000003090909c02f001603030045010000410303cd1887e1549983bcc198cd7aa9b953fa978a83e5cf1fc09833ebeddd9998ff0a000018c02bc02fc02cc030cca9cca8c013c014009c009d002f0035010000000000000c0b00254a6f94b9de03284d720000000c0a0100254a6f94b9de03284d0000000c09020200254a6f94b9de03280000000c0803030300254a6f94b9de030000000c070404040400254a6f94b9de0000000c06050505050500254a6f94b90000000c0506060606060600254a6f940000000c040707070707070700254a6f000000140b080808080808080800254a6f94b9de03284d72000000140a09090909090909090900254a6f94b9de03284d00000014090a0a0a0a0a0a0a0a0a0a00254a6f94b9de032800000014080b0b0b0b0b0b0b0b0b0b0b00254a6f94b9de0300000014070c0c0c0c0c0c0c0c0c0c0c0c00254a6f94b9de00000014060d0d0d0d0d0d0d0d0d0d0d0d0d00254a6f94b900000014050e0e0e0e0e0e0e0e0e0e0e0e0e0e00254a6f9400000014040f0f0f0f0f0f0f0f0f0f0f0f0f0f0f00254a6f0000001c0b1010101010101010101010101010101000254a6f94b9de03284d720000001c0a111111111111111111111111111111111100254a6f94b9de03284d0000001c0912121212121212121212121212121212121200254a6f94b9de03280000001c081313131313131313131313131313131313131300254a6f94b9de035353482d322e302d782068656c6c6f20776f726c640d0a485454502f312e3120343034204e6f7420466f756e640d0a436f6e74656e742d4c656e6774683a20330d0a583a20790d0a436f6e6e656374696f6e3a20636c6f73650d0a0d0a616263485454502f312e3120323030204f4b0d0a436f6e74656e742d4c656e6774683a20300d0a436f6e6e656374696f6e3a20636c6f73650d0a0d0a"
	if got := hex.EncodeToString(b); got != want {
		t.Errorf("encoded bytes differ:\n got %s\nwant %s", got, want)
	}
}
