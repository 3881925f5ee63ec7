package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"cacheuniformity/internal/addr"
)

// On-disk trace formats.  Every format is written by a streaming encoder
// and read by a BatchReader, so neither side holds the whole trace.
//
// Binary: a 16-byte header followed by fixed 10-byte records, simple
// enough to inspect with od(1).
//
//	header: magic "CUTR" | version u16 | record count u64 | pad u16
//	record: addr u64 LE | kind u8 | thread u8
//
// Compact: address deltas as zigzag varints.  Memory traces are dominated
// by small strides, so delta encoding shrinks them by 4-6x against the
// binary format.
//
//	header: magic "CUTZ" | version u16 | record count u64 | pad u16
//	record: control byte | uvarint(zigzag(addr delta)) | [thread byte]
//
// The control byte holds the Kind in bits 0-1 and, in bit 2, whether the
// thread changed (a thread byte follows); bits 3-7 are reserved and must
// be zero.
//
// Text: one access per line, "<kind> <hex addr> <thread>"; blank lines
// and lines starting with '#' are ignored.
//
// Version-1 headers carry the record count.  The encoders write version 2,
// whose count field holds countUnknown: "read records until EOF".  The
// readers accept both, so existing v1 files still replay; the record
// encoding is the same in both versions.

const (
	binaryMagic    = "CUTR"
	compactMagic   = "CUTZ"
	countedVersion = 1
	streamVersion  = 2
	countUnknown   = ^uint64(0)
	recordSize     = 10
	headerSize     = 16
)

// ErrBadFormat indicates a malformed or truncated trace file.
var ErrBadFormat = errors.New("trace: bad file format")

// EncodeBinary streams a BatchReader to w in the binary format, returning
// the number of records written.  The header carries the count-unknown
// sentinel, so the trace never needs to be materialized.
func EncodeBinary(w io.Writer, r BatchReader) (int, error) {
	bw := bufio.NewWriter(w)
	var hdr [headerSize]byte
	copy(hdr[:4], binaryMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], streamVersion)
	binary.LittleEndian.PutUint64(hdr[6:14], countUnknown)
	if _, err := bw.Write(hdr[:]); err != nil {
		return 0, err
	}
	buf := make([]Access, DefaultBatch)
	var rec [recordSize]byte
	total := 0
	for {
		n, err := r.ReadBatch(buf)
		for _, a := range buf[:n] {
			binary.LittleEndian.PutUint64(rec[0:8], uint64(a.Addr))
			rec[8] = byte(a.Kind)
			rec[9] = a.Thread
			if _, werr := bw.Write(rec[:]); werr != nil {
				return total, werr
			}
		}
		total += n
		if n == 0 {
			if err != nil && !errors.Is(err, io.EOF) {
				return total, err
			}
			return total, bw.Flush()
		}
	}
}

// EncodeCompact streams a BatchReader to w in the delta-compressed format,
// returning the number of records written.
func EncodeCompact(w io.Writer, r BatchReader) (int, error) {
	bw := bufio.NewWriter(w)
	var hdr [headerSize]byte
	copy(hdr[:4], compactMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], streamVersion)
	binary.LittleEndian.PutUint64(hdr[6:14], countUnknown)
	if _, err := bw.Write(hdr[:]); err != nil {
		return 0, err
	}
	buf := make([]Access, DefaultBatch)
	var prevAddr uint64
	var prevThread uint8
	var rec [binary.MaxVarintLen64 + 2]byte
	total := 0
	for {
		n, err := r.ReadBatch(buf)
		for _, a := range buf[:n] {
			ctrl := byte(a.Kind) & 0x3
			if a.Thread != prevThread {
				ctrl |= 1 << 2
			}
			rec[0] = ctrl
			m := 1 + binary.PutUvarint(rec[1:], zigzag(int64(uint64(a.Addr)-prevAddr)))
			if a.Thread != prevThread {
				rec[m] = a.Thread
				m++
			}
			if _, werr := bw.Write(rec[:m]); werr != nil {
				return total, werr
			}
			prevAddr = uint64(a.Addr)
			prevThread = a.Thread
		}
		total += n
		if n == 0 {
			if err != nil && !errors.Is(err, io.EOF) {
				return total, err
			}
			return total, bw.Flush()
		}
	}
}

// EncodeText streams a BatchReader to w in the text format, returning the
// number of records written.
func EncodeText(w io.Writer, r BatchReader) (int, error) {
	bw := bufio.NewWriter(w)
	buf := make([]Access, DefaultBatch)
	total := 0
	for {
		n, err := r.ReadBatch(buf)
		for _, a := range buf[:n] {
			if _, werr := fmt.Fprintf(bw, "%s %#x %d\n", a.Kind, uint64(a.Addr), a.Thread); werr != nil {
				return total, werr
			}
		}
		total += n
		if n == 0 {
			if err != nil && !errors.Is(err, io.EOF) {
				return total, err
			}
			return total, bw.Flush()
		}
	}
}

// readStreamHeader validates a codec header for the given magic and
// returns (count, counted): counted is false when the count-unknown
// sentinel says to read until EOF.
func readStreamHeader(br *bufio.Reader, magic string) (uint64, bool, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, false, fmt.Errorf("%w: short header: %v", ErrBadFormat, err)
	}
	if string(hdr[:4]) != magic {
		return 0, false, fmt.Errorf("%w: bad magic %q", ErrBadFormat, hdr[:4])
	}
	v := binary.LittleEndian.Uint16(hdr[4:6])
	if v != countedVersion && v != streamVersion {
		return 0, false, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, v)
	}
	n := binary.LittleEndian.Uint64(hdr[6:14])
	if v == streamVersion && n == countUnknown {
		return 0, false, nil
	}
	const maxRecords = 1 << 30 // refuse absurd headers rather than OOM
	if n > maxRecords {
		return 0, false, fmt.Errorf("%w: record count %d too large", ErrBadFormat, n)
	}
	return n, true, nil
}

// NewBinaryBatchReader returns a BatchReader decoding the binary format
// from r, accepting both the counted v1 header and the streaming v2
// header.  The header is validated immediately.
func NewBinaryBatchReader(r io.Reader) (BatchReader, error) {
	br := bufio.NewReader(r)
	n, counted, err := readStreamHeader(br, binaryMagic)
	if err != nil {
		return nil, err
	}
	return &binaryBatchReader{br: br, left: n, counted: counted}, nil
}

type binaryBatchReader struct {
	br      *bufio.Reader
	left    uint64 // records remaining when counted
	counted bool
	read    uint64 // records decoded so far, for error positions
	err     error
}

func (d *binaryBatchReader) ReadBatch(dst []Access) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	if d.err != nil {
		return 0, d.err
	}
	n := 0
	var rec [recordSize]byte
	for n < len(dst) {
		if d.counted && d.left == 0 {
			d.err = io.EOF
			break
		}
		if _, err := io.ReadFull(d.br, rec[:]); err != nil {
			if !d.counted && err == io.EOF {
				d.err = io.EOF
			} else {
				d.err = fmt.Errorf("%w: truncated at record %d: %v", ErrBadFormat, d.read, err)
			}
			break
		}
		k := Kind(rec[8])
		if !k.Valid() {
			d.err = fmt.Errorf("%w: invalid kind %d at record %d", ErrBadFormat, rec[8], d.read)
			break
		}
		dst[n] = Access{
			Addr:   addr.Addr(binary.LittleEndian.Uint64(rec[0:8])),
			Kind:   k,
			Thread: rec[9],
		}
		n++
		d.read++
		if d.counted {
			d.left--
		}
	}
	if n == 0 {
		return 0, d.err
	}
	return n, nil
}

// NewCompactBatchReader returns a BatchReader decoding the
// delta-compressed format from r, accepting v1 and v2 headers.
func NewCompactBatchReader(r io.Reader) (BatchReader, error) {
	br := bufio.NewReader(r)
	n, counted, err := readStreamHeader(br, compactMagic)
	if err != nil {
		return nil, err
	}
	return &compactBatchReader{br: br, left: n, counted: counted}, nil
}

type compactBatchReader struct {
	br         *bufio.Reader
	left       uint64
	counted    bool
	read       uint64
	prevAddr   uint64
	prevThread uint8
	err        error
}

func (d *compactBatchReader) ReadBatch(dst []Access) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	if d.err != nil {
		return 0, d.err
	}
	n := 0
	for n < len(dst) {
		if d.counted && d.left == 0 {
			d.err = io.EOF
			break
		}
		ctrl, err := d.br.ReadByte()
		if err != nil {
			if !d.counted && err == io.EOF {
				d.err = io.EOF
			} else {
				d.err = fmt.Errorf("%w: truncated at record %d: %v", ErrBadFormat, d.read, err)
			}
			break
		}
		if ctrl&^0x7 != 0 {
			d.err = fmt.Errorf("%w: reserved control bits set at record %d", ErrBadFormat, d.read)
			break
		}
		k := Kind(ctrl & 0x3)
		if !k.Valid() {
			d.err = fmt.Errorf("%w: invalid kind %d at record %d", ErrBadFormat, ctrl&0x3, d.read)
			break
		}
		zz, err := binary.ReadUvarint(d.br)
		if err != nil {
			d.err = fmt.Errorf("%w: bad delta at record %d: %v", ErrBadFormat, d.read, err)
			break
		}
		d.prevAddr += uint64(unzigzag(zz))
		if ctrl&(1<<2) != 0 {
			th, err := d.br.ReadByte()
			if err != nil {
				d.err = fmt.Errorf("%w: missing thread at record %d: %v", ErrBadFormat, d.read, err)
				break
			}
			d.prevThread = th
		}
		dst[n] = Access{Addr: addr.Addr(d.prevAddr), Kind: k, Thread: d.prevThread}
		n++
		d.read++
		if d.counted {
			d.left--
		}
	}
	if n == 0 {
		return 0, d.err
	}
	return n, nil
}

// NewTextBatchReader returns a BatchReader decoding the text format from
// r.  Blank lines and '#' comments are ignored.
func NewTextBatchReader(r io.Reader) BatchReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	return &textBatchReader{sc: sc}
}

type textBatchReader struct {
	sc     *bufio.Scanner
	lineNo int
	err    error
}

func (d *textBatchReader) ReadBatch(dst []Access) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	if d.err != nil {
		return 0, d.err
	}
	n := 0
	for n < len(dst) {
		if !d.sc.Scan() {
			if err := d.sc.Err(); err != nil {
				d.err = err
			} else {
				d.err = io.EOF
			}
			break
		}
		d.lineNo++
		line := strings.TrimSpace(d.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		a, err := parseTextLine(line, d.lineNo)
		if err != nil {
			d.err = err
			break
		}
		dst[n] = a
		n++
	}
	if n == 0 {
		return 0, d.err
	}
	return n, nil
}

// parseTextLine decodes one non-blank, non-comment text-format line.
func parseTextLine(line string, lineNo int) (Access, error) {
	fields := strings.Fields(line)
	if len(fields) != 3 {
		return Access{}, fmt.Errorf("%w: line %d: want 3 fields, got %d", ErrBadFormat, lineNo, len(fields))
	}
	var k Kind
	switch fields[0] {
	case "R":
		k = Read
	case "W":
		k = Write
	case "F":
		k = Fetch
	default:
		return Access{}, fmt.Errorf("%w: line %d: unknown kind %q", ErrBadFormat, lineNo, fields[0])
	}
	a, err := strconv.ParseUint(fields[1], 0, 64)
	if err != nil {
		return Access{}, fmt.Errorf("%w: line %d: bad address %q", ErrBadFormat, lineNo, fields[1])
	}
	th, err := strconv.ParseUint(fields[2], 10, 8)
	if err != nil {
		return Access{}, fmt.Errorf("%w: line %d: bad thread %q", ErrBadFormat, lineNo, fields[2])
	}
	return Access{Addr: addr.Addr(a), Kind: k, Thread: uint8(th)}, nil
}

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
