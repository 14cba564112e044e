package transport

import (
	"encoding/binary"
	"fmt"
)

// AdMsg is the binary encoding of one ad publication. Full always carries
// the bloom.EncodeWire filter encoding; Patch carries the Patch.Encode
// bytes when the publication was a patch ad (nil otherwise). Kind is the
// publisher's ad kind byte. No endpoint sends it; it is the reference ad
// codec whose cost the repository benchmark reports.
type AdMsg struct {
	Src     uint32
	Version uint16
	Topics  uint16
	Kind    byte
	Full    []byte
	Patch   []byte
}

// Encode appends the binary form of m to buf.
func (m *AdMsg) Encode(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(m.Src))
	buf = binary.LittleEndian.AppendUint16(buf, m.Version)
	buf = binary.AppendUvarint(buf, uint64(m.Topics))
	buf = append(buf, m.Kind)
	buf = binary.AppendUvarint(buf, uint64(len(m.Full)))
	buf = append(buf, m.Full...)
	buf = binary.AppendUvarint(buf, uint64(len(m.Patch)))
	buf = append(buf, m.Patch...)
	return buf
}

// DecodeAd parses an AdMsg encoding.
func DecodeAd(p []byte) (AdMsg, error) {
	var m AdMsg
	src, p, err := readUvarint(p, "ad src", 1<<31)
	if err != nil {
		return m, err
	}
	if len(p) < 3 {
		return m, fmt.Errorf("transport: truncated ad header")
	}
	m.Src = uint32(src)
	m.Version = binary.LittleEndian.Uint16(p)
	p = p[2:]
	topics, p, err := readUvarint(p, "ad topics", 1<<16)
	if err != nil {
		return m, err
	}
	m.Topics = uint16(topics)
	if len(p) < 1 {
		return m, fmt.Errorf("transport: truncated ad kind")
	}
	m.Kind = p[0]
	if m.Full, p, err = readBytes(p[1:], "ad filter"); err != nil {
		return m, err
	}
	if m.Patch, p, err = readBytes(p, "ad patch"); err != nil {
		return m, err
	}
	if len(m.Patch) == 0 {
		m.Patch = nil
	}
	if len(p) != 0 {
		return m, fmt.Errorf("transport: %d trailing bytes after ad", len(p))
	}
	return m, nil
}

// readUvarint reads one minimally encoded uvarint no larger than limit. A
// padded encoding (a trailing 0x00 continuation group) is rejected, so
// every accepted payload re-encodes to exactly the bytes it came from.
func readUvarint(p []byte, what string, limit uint64) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 || (n > 1 && p[n-1] == 0) {
		return 0, nil, fmt.Errorf("transport: bad %s", what)
	}
	if v > limit {
		return 0, nil, fmt.Errorf("transport: %s %d exceeds limit %d", what, v, limit)
	}
	return v, p[n:], nil
}

func readBytes(p []byte, what string) ([]byte, []byte, error) {
	n, p, err := readUvarint(p, what+" length", MaxFrame)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(p)) {
		return nil, nil, fmt.Errorf("transport: %s length %d exceeds %d remaining bytes", what, n, len(p))
	}
	return p[:n], p[n:], nil
}

func appendU32List(buf []byte, vs []uint32) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vs)))
	for _, v := range vs {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	return buf
}

func readU32List(p []byte, what string) ([]uint32, []byte, error) {
	count, p, err := readUvarint(p, what+" count", 1<<16)
	if err != nil {
		return nil, nil, err
	}
	if count > uint64(len(p)) {
		return nil, nil, fmt.Errorf("transport: %s count %d exceeds %d remaining bytes", what, count, len(p))
	}
	out := make([]uint32, 0, count)
	for i := uint64(0); i < count; i++ {
		v, rest, err := readUvarint(p, what, 1<<31)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, uint32(v))
		p = rest
	}
	return out, p, nil
}
