package replica

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"repro/internal/snapshot"
)

func sampleManifest() *Manifest {
	return &Manifest{
		Latest: 7,
		Entries: []Entry{
			{Version: 5, File: "full-00000005.snap", Size: 1234, CRC: 0xdeadbeef, Fingerprint: 0x1122334455667788, Keys: 100},
			{Version: 6, Delta: true, Base: 5, BaseCRC: 0xdeadbeef, File: "delta-00000006.snap", Size: 77, CRC: 0x01020304, Fingerprint: 0x1122334455667788, Keys: 104},
			{Version: 7, Delta: true, Base: 5, BaseCRC: 0xdeadbeef, File: "delta-00000007.snap", Size: 99, CRC: 0x0a0b0c0d, Fingerprint: 0x1122334455667788, Keys: 110},
		},
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := sampleManifest()
	got, err := ParseManifest(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Latest != m.Latest || len(got.Entries) != len(m.Entries) {
		t.Fatalf("round trip: got %+v, want %+v", got, m)
	}
	for i := range m.Entries {
		if got.Entries[i] != m.Entries[i] {
			t.Fatalf("entry %d: got %+v, want %+v", i, got.Entries[i], m.Entries[i])
		}
	}
}

// TestManifestV1Compat pins the line format every build of this
// repository has parsed: a hand-written v1 manifest (7-field fulls, no
// formats or alt lines) parses, and re-encodes to the identical bytes.
func TestManifestV1Compat(t *testing.T) {
	v1 := reseal([]byte("shift-manifest 1\n" +
		"latest 6\n" +
		"full 5 full-00000005.snap 1234 deadbeef 1122334455667788 100\n" +
		"delta 6 5 deadbeef delta-00000006.snap 77 01020304 1122334455667788 104\n"))
	m, err := ParseManifest(v1)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Entries) != 2 || m.Entries[0].Delta || !m.Entries[1].Delta {
		t.Fatalf("parsed entries: %+v", m.Entries)
	}
	if again := m.Encode(); !bytes.Equal(again, v1) {
		t.Fatalf("re-encoded manifest differs:\n%s\nwant:\n%s", again, v1)
	}
}

// TestManifestVersionSkew: a checksum-valid manifest of any other format
// version — the version 2 form earlier builds' format negotiation wrote,
// or a future one — fails typed, with the found and supported versions
// in the message.
func TestManifestVersionSkew(t *testing.T) {
	m := sampleManifest().Encode()
	for _, v := range []string{"2", "3"} {
		skewed := bytes.Replace(m, []byte("shift-manifest 1"), []byte("shift-manifest "+v), 1)
		// Re-seal: the version check must fire on a checksum-valid
		// manifest, not hide behind the corruption detector.
		skewed = reseal(skewed)
		_, err := ParseManifest(skewed)
		if !errors.Is(err, snapshot.ErrVersionUnsupported) {
			t.Fatalf("manifest version %s: err = %v, want ErrVersionUnsupported", v, err)
		}
		if !strings.Contains(err.Error(), "version "+v) || !strings.Contains(err.Error(), "reads 1") {
			t.Fatalf("error message lacks found/supported versions: %v", err)
		}
	}
}

// reseal recomputes the trailing self-CRC after a test mutates the body
// (input with no checksum line is treated as all body).
func reseal(data []byte) []byte {
	body := data
	if tail := bytes.LastIndex(data, []byte("crc32c ")); tail >= 0 {
		body = data[:tail]
	}
	return []byte(fmt.Sprintf("%scrc32c %08x\n", body, crc32.Checksum(body, castagnoli)))
}

func TestManifestRejects(t *testing.T) {
	base := sampleManifest()
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bit flip", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 1
			return c
		}},
		{"truncated", func(b []byte) []byte { return b[:len(b)-20] }},
		{"empty", func([]byte) []byte { return nil }},
		{"no entries", func([]byte) []byte {
			return reseal([]byte("shift-manifest 1\nlatest 1\ncrc32c 00000000\n"))
		}},
		{"latest missing entry", func(b []byte) []byte {
			return reseal(bytes.Replace(b, []byte("latest 7"), []byte("latest 9"), 1))
		}},
		{"unordered versions", func(b []byte) []byte {
			// Swap the full (line 2) and the last delta (line 4): versions
			// 7, 6, 5 can no longer be strictly increasing.
			lines := bytes.Split(b, []byte("\n"))
			lines[2], lines[4] = lines[4], lines[2]
			return reseal(bytes.Join(lines, []byte("\n")))
		}},
		{"formats line", func(b []byte) []byte {
			return reseal(bytes.Replace(b, []byte("latest 7\n"), []byte("formats 1 2\nlatest 7\n"), 1))
		}},
		{"alt line", func(b []byte) []byte {
			body := b[:bytes.LastIndex(b, []byte("crc32c"))]
			return reseal(append(append([]byte{}, body...), []byte("alt 5 1 x.snap 10 00000001\n")...))
		}},
		{"full with a format column", func(b []byte) []byte {
			return reseal(bytes.Replace(b, []byte(" 100\n"), []byte(" 100 2\n"), 1))
		}},
		{"dangling delta base", func(b []byte) []byte {
			return reseal(bytes.Replace(b, []byte("delta 6 5"), []byte("delta 6 4"), 1))
		}},
		{"base crc mismatch", func(b []byte) []byte {
			return reseal(bytes.Replace(b, []byte("delta 6 5 deadbeef"), []byte("delta 6 5 deadbee0"), 1))
		}},
		{"path traversal name", func(b []byte) []byte {
			return reseal(bytes.Replace(b, []byte("full-00000005.snap"), []byte("..%2fetc"), 1))
		}},
		{"unknown directive", func(b []byte) []byte {
			return reseal(append(append([]byte{}, b[:bytes.LastIndex(b, []byte("crc32c"))]...), []byte("gizmo 1\n")...))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseManifest(tc.mutate(base.Encode())); err == nil {
				t.Fatalf("corrupt manifest parsed cleanly")
			}
		})
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"full-00000001.snap", "MANIFEST", "a.b-c_d"} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", ".hidden", "../up", "a/b", "a\\b", "a b", strings.Repeat("x", 300)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true, want false", bad)
		}
	}
}

// FuzzManifest feeds the parser arbitrary bytes: it must never panic,
// and anything it accepts must re-encode to a parseable manifest with
// the same content (parse∘encode is an identity on the accepted set).
func FuzzManifest(f *testing.F) {
	f.Add(sampleManifest().Encode())
	f.Add([]byte("shift-manifest 1\nlatest 1\nfull 1 a.snap 10 00000001 0000000000000002 3\ncrc32c 00000000\n"))
	// The version 2 form earlier builds wrote: rejected, but a useful
	// starting point for the mutator.
	f.Add([]byte("shift-manifest 2\nformats 1 2\nlatest 1\nfull 1 a.snap 10 00000001 0000000000000002 3 2\nalt 1 1 b.snap 9 00000002\ncrc32c 00000000\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseManifest(data)
		if err != nil {
			return
		}
		again, err := ParseManifest(m.Encode())
		if err != nil {
			t.Fatalf("accepted manifest did not round-trip: %v", err)
		}
		if again.Latest != m.Latest || len(again.Entries) != len(m.Entries) {
			t.Fatalf("round trip changed content: %+v vs %+v", again, m)
		}
		for i := range m.Entries {
			if again.Entries[i] != m.Entries[i] {
				t.Fatalf("round trip changed entry %d: %+v vs %+v", i, again.Entries[i], m.Entries[i])
			}
		}
	})
}
