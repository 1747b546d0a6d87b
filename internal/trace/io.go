package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Binary format:
//
//	magic   [4]byte  "RCBT"
//	version uint16   1
//	fpsMilli uint32  frame rate in millihertz (24 fps -> 24000)
//	count   uint64   number of frames
//	frames  count *  uvarint frame sizes in bits
//
// All fixed-width fields are big-endian. Frame sizes use uvarint because
// typical MPEG-1 frames fit in two or three bytes.

var binaryMagic = [4]byte{'R', 'C', 'B', 'T'}

const binaryVersion = 1

// WriteBinary serializes the trace in the RCBT binary format.
func (t *Trace) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	hdr := make([]byte, 2+4+8)
	binary.BigEndian.PutUint16(hdr[0:2], binaryVersion)
	binary.BigEndian.PutUint32(hdr[2:6], uint32(t.FPS*1000+0.5))
	binary.BigEndian.PutUint64(hdr[6:14], uint64(len(t.FrameBits)))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	for _, b := range t.FrameBits {
		n := binary.PutUvarint(buf[:], uint64(b))
		if _, err := bw.Write(buf[:n]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary parses a trace in the RCBT binary format.
func ReadBinary(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic[:])
	}
	hdr := make([]byte, 2+4+8)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if v := binary.BigEndian.Uint16(hdr[0:2]); v != binaryVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	fps := float64(binary.BigEndian.Uint32(hdr[2:6])) / 1000
	if fps <= 0 {
		return nil, fmt.Errorf("trace: non-positive fps in header")
	}
	count := binary.BigEndian.Uint64(hdr[6:14])
	const maxFrames = 1 << 32
	if count > maxFrames {
		return nil, fmt.Errorf("trace: frame count %d exceeds limit", count)
	}
	// Grow with the frames actually read: the header's count is untrusted
	// input, and sizing the slice from it lets a 20-byte file demand tens
	// of gigabytes.
	frames := make([]int64, 0, min(count, 1<<16))
	for i := uint64(0); i < count; i++ {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: reading frame %d: %w", i, err)
		}
		if v > 1<<62 {
			return nil, fmt.Errorf("trace: frame %d size overflows", i)
		}
		frames = append(frames, int64(v))
	}
	return New(frames, fps), nil
}

// WriteText serializes the trace as text: a header line "# fps <rate>"
// followed by one decimal frame size (bits) per line. This is the format of
// the public video-trace archives the paper drew on.
func (t *Trace) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# fps %g\n", t.FPS); err != nil {
		return err
	}
	for _, b := range t.FrameBits {
		if _, err := fmt.Fprintln(bw, b); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses the text format. Lines starting with '#' are comments; a
// comment of the form "# fps <rate>" sets the frame rate (default 24).
func ReadText(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	fps := 24.0
	var frames []int64
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" {
			continue
		}
		if strings.HasPrefix(s, "#") {
			fields := strings.Fields(strings.TrimPrefix(s, "#"))
			if len(fields) == 2 && fields[0] == "fps" {
				v, err := strconv.ParseFloat(fields[1], 64)
				if err != nil || v <= 0 {
					return nil, fmt.Errorf("trace: line %d: bad fps %q", line, fields[1])
				}
				fps = v
			}
			continue
		}
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if v < 0 {
			return nil, fmt.Errorf("trace: line %d: negative frame size %d", line, v)
		}
		frames = append(frames, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return New(frames, fps), nil
}

// Load reads a trace from path, auto-detecting the binary format by magic and
// falling back to text.
func Load(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	head, err := br.Peek(4)
	if err == nil && len(head) == 4 && [4]byte(head) == binaryMagic {
		return ReadBinary(br)
	}
	return ReadText(br)
}

// Save writes a trace to path; binary selects the RCBT binary format.
func (t *Trace) Save(path string, binaryFormat bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if binaryFormat {
		if err := t.WriteBinary(f); err != nil {
			return err
		}
	} else if err := t.WriteText(f); err != nil {
		return err
	}
	return f.Close()
}
