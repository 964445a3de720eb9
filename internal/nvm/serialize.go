package nvm

import (
	"encoding/binary"
	"fmt"
	"io"
)

// mediaMagic heads a serialized device image.
const mediaMagic uint64 = 0x4352504d4e564d31 // "CRPMNVM1"

// WriteMediaTo serializes the durable media contents — exactly what a power
// failure would leave behind — so a device can be persisted to a real file
// and reopened by a later process. Cache contents (unflushed lines) are NOT
// included, faithfully modelling an image taken at power-off.
func (d *Device) WriteMediaTo(w io.Writer) error {
	d.mustLive()
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], mediaMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(d.size))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("nvm: writing image header: %w", err)
	}
	if _, err := w.Write(d.media); err != nil {
		return fmt.Errorf("nvm: writing media: %w", err)
	}
	return nil
}

// ReadDeviceFrom reconstructs a device from a serialized image. The device
// comes up as after a clean power cycle: working state equals media, cache
// empty.
func ReadDeviceFrom(r io.Reader, opts ...Option) (*Device, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("nvm: reading image header: %w", err)
	}
	if got := binary.LittleEndian.Uint64(hdr[0:]); got != mediaMagic {
		return nil, fmt.Errorf("nvm: bad image magic %#x", got)
	}
	size := int(binary.LittleEndian.Uint64(hdr[8:]))
	if size <= 0 || size%LineSize != 0 {
		return nil, fmt.Errorf("nvm: implausible image size %d", size)
	}
	d := NewDevice(size, opts...)
	if _, err := io.ReadFull(r, d.media); err != nil {
		return nil, fmt.Errorf("nvm: reading media: %w", err)
	}
	copy(d.working, d.media)
	return d, nil
}
