type capability = Fs_access | Device_access | Knows_formats | Bulk_eraser
type goal = Destroy_record | Alter_record | Mask_record | Erase_history
type constraint_ = No_physical_destruction | Limited_offline_time

let attacker_capabilities =
  [ Fs_access; Device_access; Knows_formats; Bulk_eraser ]
