package runcache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"strconv"
	"strings"
)

// A segment is one writer's append-only log of records:
//
//	xorbp-runcache/<format> "<schema>"\n     the header, written at creation
//	\n<crc> <key> <value>\n                  one record per Put
//	\n<crc> <key> <value>\n
//	...
//
// <crc> is the IEEE CRC-32 of "<key> <value>" as eight lowercase hex
// digits, <key> holds no space or newline, and <value> is compact JSON,
// which holds no raw newline. The newline before and after every record
// means a record torn by a crash or a full disk — it lacks its final
// newline — ends at the next record's leading newline instead of
// swallowing it, so the reader resynchronises and the damage costs only
// the torn record.

// segSuffix names segment files; a quarantined segment gains ".corrupt"
// after it.
const segSuffix = ".seg"

// segmentHeader is the first line of every segment of schema. Open
// trusts no record of a segment whose header differs, so a segment
// copied in from another schema's directory is never replayed.
func segmentHeader(schema string) []byte {
	return []byte("xorbp-runcache/" + strconv.Itoa(entryFormat) + " " + strconv.Quote(schema) + "\n")
}

// createSegment creates and locks a new, uniquely named segment in dir
// and writes its header. Until the lock is taken the file is empty, and
// Open and GC leave empty segments alone.
func createSegment(dir string, header []byte) (*os.File, error) {
	f, err := os.CreateTemp(dir, "*"+segSuffix)
	if err != nil {
		return nil, err
	}
	if err = lockFile(f); err == nil {
		_, err = f.Write(header)
	}
	if err != nil {
		_ = f.Close()
		_ = os.Remove(f.Name()) // no other store ever writes to it, so it is ours to discard
		return nil, err
	}
	return f, nil
}

// appendRecord frames one record for key and value onto dst, compacting
// value; it fails if key cannot be framed or value is not JSON.
func appendRecord(dst []byte, key string, value []byte) ([]byte, error) {
	if key == "" || strings.ContainsAny(key, " \n") {
		return dst, fmt.Errorf("key %q holds a space or newline, or is empty", key)
	}
	dst = append(dst, "\n00000000 "...)
	body := len(dst)
	buf := bytes.NewBuffer(append(append(dst, key...), ' '))
	if err := json.Compact(buf, value); err != nil {
		return dst, err
	}
	dst = buf.Bytes()
	const hexDigits = "0123456789abcdef"
	sum := crc32.ChecksumIEEE(dst[body:])
	for i := 0; i < 8; i++ {
		dst[body-2-i] = hexDigits[sum>>(4*i)&0xf]
	}
	return append(dst, '\n'), nil
}

// parseRecord splits one record line into key and value if it is well
// framed and its checksum matches.
func parseRecord(line []byte) (key, value []byte, ok bool) {
	if len(line) < len("00000000 k v") || line[8] != ' ' {
		return nil, nil, false
	}
	var sum uint32
	for _, c := range line[:8] {
		switch {
		case '0' <= c && c <= '9':
			sum = sum<<4 | uint32(c-'0')
		case 'a' <= c && c <= 'f':
			sum = sum<<4 | uint32(c-'a'+10)
		default:
			return nil, nil, false
		}
	}
	body := line[9:]
	sp := bytes.IndexByte(body, ' ')
	if sp < 1 || sp == len(body)-1 || crc32.ChecksumIEEE(body) != sum {
		return nil, nil, false
	}
	return body[:sp], body[sp+1:], true
}

// scanSegment calls good for every well-framed record of a segment
// whose checksum matches — rec is the record line without its newlines
// — and returns the number of damaged records. A damaged record can
// span lines (a flipped bit that became a newline, a torn record
// directly followed by the next one), so each run of bad lines not
// broken by an empty line counts once. A segment that does not start
// with header is damaged as a whole and yields no record; an empty one
// has not been written yet and is not damaged.
func scanSegment(data, header []byte, good func(rec, key, value []byte)) (damaged int) {
	if len(data) == 0 {
		return 0
	}
	if !bytes.HasPrefix(data, header) {
		return 1
	}
	rest := data[len(header):]
	inRun := false
	for len(rest) > 0 {
		line := rest
		rest = nil
		if i := bytes.IndexByte(line, '\n'); i >= 0 {
			line, rest = line[:i], line[i+1:]
		}
		if len(line) == 0 {
			inRun = false
			continue
		}
		if key, value, ok := parseRecord(line); ok {
			good(line, key, value)
			inRun = false
			continue
		}
		if !inRun {
			damaged++
		}
		inRun = true
	}
	return damaged
}
